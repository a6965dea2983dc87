(* End-to-end Jrpm pipeline tests over real workloads (reduced sizes so
   the suite stays fast). *)

let run_small name scale =
  let w = Workloads.Registry.find_exn name in
  Jrpm.Pipeline.run ~name (w.Workloads.Workload.source scale)

let test_workloads_compile () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let src = Workloads.Registry.default_source w in
      let tac = Ir.Lower.compile src in
      let table = Compiler.Stl_table.build tac in
      Alcotest.(check bool)
        (w.Workloads.Workload.name ^ " has loops")
        true
        (Compiler.Stl_table.loop_count table > 0))
    Workloads.Registry.all

let test_registry () =
  Alcotest.(check int) "26 benchmarks" 26 (List.length Workloads.Registry.all);
  Alcotest.(check bool) "finds Huffman" true
    (Workloads.Registry.find "Huffman" <> None);
  Alcotest.(check (option string)) "missing" None
    (Option.map
       (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.name)
       (Workloads.Registry.find "nosuch"))

let check_report name (r : Jrpm.Pipeline.report) =
  Alcotest.(check bool) (name ^ " outputs match") true r.outputs_match;
  Alcotest.(check bool) (name ^ " base >= opt >= 1") true
    (r.base.slowdown >= r.opt.slowdown -. 0.01 && r.opt.slowdown >= 0.999);
  Alcotest.(check bool)
    (name ^ " slowdown small")
    true (r.opt.slowdown < 1.6);
  Alcotest.(check bool) (name ^ " actual speedup sane") true
    (r.actual_speedup > 0.3 && r.actual_speedup <= 4.05)

let test_huffman_pipeline () =
  let r = run_small "Huffman" 600 in
  check_report "Huffman" r;
  (* Table 3's qualitative claim: the outer decode loop is selected,
     with positive expected speedup, and the inner tree-walk is not
     selected separately underneath it *)
  Alcotest.(check bool) "something chosen" true (r.selection.chosen <> []);
  let chosen_in_decode =
    List.filter
      (fun (c : Test_core.Analyzer.choice) ->
        let s = Compiler.Stl_table.stl_of r.table c.chosen_stl in
        s.Compiler.Stl_table.func_name = "decode")
      r.selection.chosen
  in
  Alcotest.(check int) "one decode STL chosen" 1 (List.length chosen_in_decode);
  let c = List.hd chosen_in_decode in
  let s = Compiler.Stl_table.stl_of r.table c.Test_core.Analyzer.chosen_stl in
  (* the outer do-while (depth 1), not the inner tree-descent *)
  Alcotest.(check int) "outer loop" 1 s.Compiler.Stl_table.static_depth

let test_parallel_float_pipeline () =
  let r = run_small "shallow" 24 in
  check_report "shallow" r;
  Alcotest.(check bool) "good predicted speedup" true
    (r.selection.predicted_speedup > 2.);
  Alcotest.(check bool) "good actual speedup" true (r.actual_speedup > 2.)

let test_montecarlo_pipeline () =
  let r = run_small "monteCarlo" 1500 in
  check_report "monteCarlo" r;
  Alcotest.(check bool) "near-perfect speedup" true (r.actual_speedup > 3.)

let test_serialish_pipeline () =
  (* MipsSimulator carries architected state: TLS should not blow up *)
  let r = run_small "MipsSimulator" 3000 in
  check_report "MipsSimulator" r

let test_anno_components_sum () =
  let r = run_small "NumHeapSort" 500 in
  (* the slowdown components must not exceed the total overhead *)
  let overhead = r.opt.cycles - r.plain_cycles in
  let parts =
    r.opt.locals_cycles + r.opt.read_stats_cycles + r.opt.loop_anno_cycles
  in
  Alcotest.(check bool) "components <= overhead" true (parts <= overhead);
  Alcotest.(check bool) "components > 0" true (parts > 0)

let test_dataset_sensitivity () =
  (* Sec. 6.1: with a larger data set, inner-loop trip counts grow and
     speculating high in the nest overflows the buffers, so selection
     moves (or stays) low; with small data the outer loop is viable.
     We check the mechanism: overflow frequency of the outer loop grows
     with the data size. *)
  let w = Workloads.Registry.find_exn "LuFactor" in
  let ovf scale =
    let tracer, _ = Jrpm.Pipeline.profile_only (w.Workloads.Workload.source scale) in
    let stats = Test_core.Tracer.stats tracer in
    List.fold_left
      (fun acc (_, s) -> Float.max acc (Test_core.Stats.overflow_freq s))
      0. stats
  in
  let small = ovf 12 and large = ovf 56 in
  Alcotest.(check bool)
    (Printf.sprintf "overflow grows with dataset (%.3f -> %.3f)" small large)
    true (large >= small)

(* The one profiled run prices the plain and base builds: every number
   equals what interpreting all three builds gives. Workloads run at the
   golden-output sizes, so the check stays fast. *)
let check_against_oracle name (r : Jrpm.Pipeline.report) =
  Alcotest.(check string)
    (name ^ " matches the three-run oracle")
    (Three_run_oracle.to_string (Three_run_oracle.profile r.table r.tac))
    (Three_run_oracle.to_string (Three_run_oracle.of_report r))

let test_registry_oracle () =
  List.iter
    (fun (name, size, _) -> check_against_oracle name (run_small name size))
    Test_workload_golden.goldens

(* Faults surface from the profiled run exactly as they did from the
   plain run it replaced: same exception, same message. *)
let div_src =
  {|
int[] a;
def main() {
  a = new int[4];
  int s = 0;
  for (int i = 0; i < 4; i = i + 1) { s = s + 10 / a[i]; }
  print_int(s);
}
|}

let negative_src =
  {|
int[] a;
def main() {
  a = new int[4];
  int s = 0;
  for (int i = 0; i < 4; i = i + 1) { s = s + a[i - 1000000]; }
  print_int(s);
}
|}

let spin_src = "def main() { int i = 0; while (1) { i = i + 1; } }"

let test_fault_parity () =
  Alcotest.check_raises "out of fuel" (Hydra.Seq_interp.Out_of_fuel 10_000)
    (fun () -> ignore (Jrpm.Pipeline.run ~fuel:10_000 ~name:"spin" spin_src));
  Alcotest.check_raises "profile_only out of fuel"
    (Hydra.Seq_interp.Out_of_fuel 10_000) (fun () ->
      ignore (Jrpm.Pipeline.profile_only ~fuel:10_000 spin_src));
  Alcotest.check_raises "division by zero"
    (Hydra.Machine.Trap "integer division by zero") (fun () ->
      ignore (Jrpm.Pipeline.run ~name:"div" div_src));
  Alcotest.check_raises "negative address"
    (Hydra.Machine.Trap "load from a negative address") (fun () ->
      ignore (Jrpm.Pipeline.run ~name:"neg" negative_src))

let test_cli_fault () =
  if Sys.file_exists Test_regression.jrpm then
    List.iter
      (fun (src, msg) ->
        let file = Filename.temp_file "fault" ".jvl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () ->
            Out_channel.with_open_text file (fun oc -> output_string oc src);
            List.iter
              (fun cmd ->
                Test_regression.check_cli ("jrpm " ^ cmd)
                  ~needle:("runtime trap: " ^ msg)
                  (Printf.sprintf "%s %s %s" Test_regression.jrpm cmd
                     (Filename.quote file)))
              [ "auto"; "profile" ]))
      [
        (div_src, "integer division by zero");
        (negative_src, "load from a negative address");
      ]

let suites =
  [
    ( "pipeline.registry",
      [
        Alcotest.test_case "all compile" `Slow test_workloads_compile;
        Alcotest.test_case "registry" `Quick test_registry;
      ] );
    ( "pipeline.end_to_end",
      [
        Alcotest.test_case "huffman (table 3 shape)" `Slow test_huffman_pipeline;
        Alcotest.test_case "shallow water" `Slow test_parallel_float_pipeline;
        Alcotest.test_case "monte carlo" `Slow test_montecarlo_pipeline;
        Alcotest.test_case "mips simulator" `Slow test_serialish_pipeline;
        Alcotest.test_case "slowdown components" `Slow test_anno_components_sum;
        Alcotest.test_case "dataset sensitivity" `Slow test_dataset_sensitivity;
      ] );
    ( "pipeline.one_run",
      [
        Alcotest.test_case "registry matches three-run oracle" `Slow
          test_registry_oracle;
        Alcotest.test_case "fault parity" `Quick test_fault_parity;
        Alcotest.test_case "cli fault exit" `Quick test_cli_fault;
      ] );
  ]
