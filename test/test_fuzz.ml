(* Differential fuzzing across the whole stack: for random well-typed
   programs, the plain interpreter, the optimizer, the annotated/traced
   build, the TLS simulator (restart-only and sync modes) must all agree
   — and the parse/print round trip must be the identity. *)

(* every traced root loop: the widest selection the TLS code generator
   accepts, leaving the simulator's correctness machinery to cope *)
let root_stls (table : Compiler.Stl_table.t) =
  Array.to_list table.Compiler.Stl_table.stls
  |> List.filter_map (fun (s : Compiler.Stl_table.stl) ->
         if s.Compiler.Stl_table.traced && s.Compiler.Stl_table.static_depth = 1
         then Some s.Compiler.Stl_table.id
         else None)

let engines_agree seed =
  let src = Fuzz_gen.gen_program seed in
  let tac = Ir.Lower.compile src in
  let otac = Compiler.Opt.program tac in
  let table = Compiler.Stl_table.build tac in
  let otable = Compiler.Stl_table.build otac in
  let out_of prog run = List.map Ir.Value.to_string (run prog) in
  let plain =
    out_of
      (Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain table tac)
      (fun p -> (Hydra.Seq_interp.run p).Hydra.Seq_interp.output)
  in
  let optimized =
    out_of
      (Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain otable otac)
      (fun p -> (Hydra.Seq_interp.run p).Hydra.Seq_interp.output)
  in
  let annotated =
    out_of
      (Compiler.Codegen.generate
         ~mode:(Compiler.Codegen.Annotated { optimized = true })
         otable otac)
      (fun p ->
        let tracer = Test_core.Tracer.create () in
        (Hydra.Seq_interp.run ~tracing:true ~sink:(Test_core.Tracer.sink tracer) p)
          .Hydra.Seq_interp.output)
  in
  let tls_prog =
    Compiler.Codegen.generate
      ~mode:(Compiler.Codegen.Tls { selected = root_stls otable })
      otable otac
  in
  let tls =
    out_of tls_prog (fun p -> (Hydra.Tls_sim.run p).Hydra.Tls_sim.output)
  in
  let tls_sync =
    out_of tls_prog (fun p ->
        (Hydra.Tls_sim.run ~sync:true p).Hydra.Tls_sim.output)
  in
  plain = optimized && plain = annotated && plain = tls && plain = tls_sync

let prop_engines =
  QCheck.Test.make ~name:"all engines agree on random programs" ~count:40
    QCheck.(int_range 1 1_000_000)
    engines_agree

(* The pipeline's one-run accounting against interpreting all three
   builds (plain, base-annotated, optimized-annotated). *)
let prop_oracle =
  QCheck.Test.make ~name:"one run prices three builds on random programs"
    ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let r = Jrpm.Pipeline.run ~name:"fuzz" (Fuzz_gen.gen_program seed) in
      Three_run_oracle.to_string (Three_run_oracle.profile r.table r.tac)
      = Three_run_oracle.to_string (Three_run_oracle.of_report r))

(* The TLS simulator on a random machine: CPU count, Table-1 buffer
   limits and line size all vary, and the output must still equal the
   sequential interpreter's, with and without learned synchronization. *)
let machine_gen =
  QCheck.Gen.(
    map
      (fun (seed, cpus, (lb, sb), lw) ->
        ( seed,
          {
            Hydra.Config.default with
            num_cpus = cpus;
            load_buffer_lines = lb;
            store_buffer_lines = sb;
            line_words = lw;
          } ))
      (quad (int_range 1 1_000_000) (int_range 1 8)
         (pair (int_range 1 8) (int_range 1 8))
         (oneofl [ 1; 3; 8 ])))

let print_machine (seed, (c : Hydra.Config.t)) =
  Printf.sprintf "seed %d, cpus %d, load/store lines %d/%d, line words %d"
    seed c.num_cpus c.load_buffer_lines c.store_buffer_lines c.line_words

let tls_agrees_on_machine (seed, config) =
  let tac = Ir.Lower.compile (Fuzz_gen.gen_program seed) in
  let table = Compiler.Stl_table.build tac in
  let tls_prog =
    Compiler.Codegen.generate
      ~mode:(Compiler.Codegen.Tls { selected = root_stls table })
      table tac
  in
  let strings = List.map Ir.Value.to_string in
  let seq =
    strings
      (Hydra.Seq_interp.run
         (Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain table tac))
        .Hydra.Seq_interp.output
  in
  List.for_all
    (fun sync ->
      seq = strings (Hydra.Tls_sim.run ~config ~sync tls_prog).Hydra.Tls_sim.output)
    [ false; true ]

let prop_machines =
  QCheck.Test.make ~name:"tls == sequential on random machines" ~count:40
    (QCheck.make ~print:print_machine machine_gen)
    tls_agrees_on_machine

let roundtrip seed =
  let src = Fuzz_gen.gen_program seed in
  let ast1 = Ir.Parser.parse src in
  let printed = Ir.Pretty.program_to_string ast1 in
  let ast2 = Ir.Parser.parse printed in
  Ir.Pretty.strip_positions_program ast1 = Ir.Pretty.strip_positions_program ast2

let prop_roundtrip =
  QCheck.Test.make ~name:"parse∘print∘parse is the identity" ~count:60
    QCheck.(int_range 1 1_000_000)
    roundtrip

(* the printer also round-trips the hand-written workloads *)
let test_workload_roundtrip () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let src = Workloads.Registry.default_source w in
      let ast1 = Ir.Parser.parse src in
      let ast2 = Ir.Parser.parse (Ir.Pretty.program_to_string ast1) in
      if
        Ir.Pretty.strip_positions_program ast1
        <> Ir.Pretty.strip_positions_program ast2
      then Alcotest.fail (w.Workloads.Workload.name ^ " does not round-trip"))
    Workloads.Registry.all

(* printed programs still typecheck and run identically *)
let test_print_preserves_semantics () =
  List.iter
    (fun seed ->
      let src = Fuzz_gen.gen_program seed in
      let printed = Ir.Pretty.program_to_string (Ir.Parser.parse src) in
      let run s =
        let prog, _ = Compiler.Codegen.compile_source ~mode:Compiler.Codegen.Plain s in
        List.map Ir.Value.to_string (Hydra.Seq_interp.run prog).Hydra.Seq_interp.output
      in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d" seed)
        (run src) (run printed))
    [ 3; 1417; 99991 ]

let suites =
  [
    ( "fuzz.differential",
      [
        QCheck_alcotest.to_alcotest prop_engines;
        QCheck_alcotest.to_alcotest prop_oracle;
        QCheck_alcotest.to_alcotest prop_machines;
        QCheck_alcotest.to_alcotest prop_roundtrip;
        Alcotest.test_case "workloads round-trip" `Quick test_workload_roundtrip;
        Alcotest.test_case "print preserves semantics" `Quick
          test_print_preserves_semantics;
      ] );
  ]
