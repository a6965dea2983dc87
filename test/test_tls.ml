(* TLS simulator tests: speculative execution must preserve sequential
   semantics under violations, restarts, reductions, inductors,
   globalized carried locals, early exits, and zero-trip loops — and
   must actually speed up dependence-free loops. *)

let compile_both ?selected src =
  let tac = Ir.Lower.compile src in
  let table = Compiler.Stl_table.build tac in
  let plain = Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain table tac in
  let selected =
    match selected with
    | Some l -> l
    | None ->
        (* select every traced candidate that is a root loop, leaving the
           correctness machinery to sort out the rest *)
        Array.to_list table.Compiler.Stl_table.stls
        |> List.filter_map (fun (s : Compiler.Stl_table.stl) ->
               if s.Compiler.Stl_table.traced && s.Compiler.Stl_table.static_depth = 1
               then Some s.Compiler.Stl_table.id
               else None)
  in
  let tls =
    Compiler.Codegen.generate ~mode:(Compiler.Codegen.Tls { selected }) table tac
  in
  (plain, tls)

let outputs_of_seq prog =
  List.map Ir.Value.to_string (Hydra.Seq_interp.run prog).Hydra.Seq_interp.output

let outputs_of_tls prog =
  List.map Ir.Value.to_string (Hydra.Tls_sim.run prog).Hydra.Tls_sim.output

let check_equiv ?selected name src =
  Alcotest.test_case name `Quick (fun () ->
      let plain, tls = compile_both ?selected src in
      Alcotest.(check (list string))
        (name ^ " output") (outputs_of_seq plain) (outputs_of_tls tls))

let equivalence_cases =
  [
    check_equiv "independent writes"
      "int[] a;\n\
       def main() { a = new int[200]; for (int i = 0; i < 200; i = i + 1) { a[i] = i * 3; } print_int(a[199]); }";
    check_equiv "serial heap chain (violation storm)"
      "int[] a;\n\
       def main() { a = new int[300]; a[0] = 1; for (int i = 1; i < 300; i = i + 1) { a[i] = a[i-1] * 5 % 97 + 1; } print_int(a[299]); }";
    check_equiv "sum reduction"
      "int[] a;\n\
       def main() { a = new int[100]; for (int i = 0; i < 100; i = i + 1) { a[i] = i; } int s = 0; for (int j = 0; j < 100; j = j + 1) { s = s + a[j]; } print_int(s); }";
    check_equiv "float reduction keeps order"
      "float[] a;\n\
       def main() { a = new float[64]; for (int i = 0; i < 64; i = i + 1) { a[i] = sin(i2f(i)); } float s = 0.0; for (int j = 0; j < 64; j = j + 1) { s = s + a[j]; } print_float(s); }";
    check_equiv "min/max reductions"
      "int[] a;\n\
       def main() { a = new int[80]; for (int i = 0; i < 80; i = i + 1) { a[i] = (i * 37) % 53; } int mn = 99999; int mx = -99999; for (int j = 0; j < 80; j = j + 1) { mn = imin(mn, a[j]); mx = imax(mx, a[j]); } print_int(mn); print_int(mx); }";
    check_equiv "inductor live after loop"
      "def main() { int i = 0; int s = 0; while (i < 57) { s = s + 2; i = i + 3; } print_int(i); print_int(s); }";
    check_equiv "carried local globalized"
      "int[] a;\n\
       def main() { a = new int[60]; for (int i = 0; i < 60; i = i + 1) { a[i] = i % 7; } int carry = 0; for (int j = 0; j < 60; j = j + 1) { if (a[j] > 3) { carry = carry + a[j]; } } print_int(carry); }";
    check_equiv "private live-out (last value)"
      "int[] a;\n\
       def main() { a = new int[40]; for (int i = 0; i < 40; i = i + 1) { a[i] = i * i % 31; } int last = -1; for (int j = 0; j < 40; j = j + 1) { last = a[j]; } print_int(last); }";
    check_equiv "break exit"
      "int[] a;\n\
       def main() { a = new int[500]; a[321] = 9; int at = -1; for (int i = 0; i < 500; i = i + 1) { if (a[i] == 9) { at = i; break; } } print_int(at); }";
    check_equiv "zero-trip loop"
      "def main() { int n = 0; int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + 1; } print_int(s); }";
    check_equiv "single-trip loop"
      "def main() { int s = 0; for (int i = 0; i < 1; i = i + 1) { s = s + 41; } print_int(s + 1); }";
    check_equiv "calls inside threads"
      "def work(int x) : int { int acc = 0; for (int k = 0; k < x % 5 + 1; k = k + 1) { acc = acc + k * x; } return acc; }\n\
       int[] out;\n\
       def main() { out = new int[50]; for (int i = 0; i < 50; i = i + 1) { out[i] = work(i); } int s = 0; for (int j = 0; j < 50; j = j + 1) { s = s + out[j]; } print_int(s); }";
    check_equiv "loop entered repeatedly"
      "int[] a;\n\
       def main() { a = new int[30]; int total = 0; for (int r = 0; r < 5; r = r + 1) { int s = 0; for (int i = 0; i < 30; i = i + 1) { a[i] = a[i] + r; s = s + a[i]; } total = total + s; } print_int(total); }";
    check_equiv "prints inside speculative threads (ordering)"
      "def main() { for (int i = 0; i < 8; i = i + 1) { print_int(i * 10); } }";
    check_equiv "misspeculated threads read garbage safely"
      "int[] a;\n\
       int in_p;\n\
       def main() { a = new int[100]; for (int i = 0; i < 100; i = i + 1) { a[i] = i % 9 + 1; } in_p = 0; int n = 0; while (in_p < 100) { in_p = in_p + a[in_p]; n = n + 1; } print_int(n); print_int(in_p); }";
    (* a successor reads v[a[i] - 1000000] before its predecessor has
       stored a[i]: the stale 0 makes a negative address, which must
       squash the thread instead of escaping the simulator *)
    check_equiv "misspeculated negative address squashes"
      "int[] a; int[] v;\n\
       def main() { a = new int[64]; v = new int[64]; a[0] = 1000000; for (int i = 0; i < 63; i = i + 1) { int t = v[a[i] - 1000000]; a[i+1] = i + 1000001; v[i] = t + 1; } print_int(v[62]); }";
  ]

(* Dependence-free loops actually speed up (and never slow down much). *)
let parallel_loop_src =
  "int[] a;\n\
   def main() { a = new int[4000]; for (int i = 0; i < 4000; i = i + 1) { a[i] = i * i % 1000; } print_int(a[3999]); }"

let test_speedup_parallel_loop () =
  let plain, tls = compile_both parallel_loop_src in
  let sc = (Hydra.Seq_interp.run plain).Hydra.Seq_interp.cycles in
  let tr = Hydra.Tls_sim.run tls in
  let speedup = float_of_int sc /. float_of_int tr.Hydra.Tls_sim.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.2f in (2.5, 4.0]" speedup)
    true
    (speedup > 2.5 && speedup <= 4.05);
  Alcotest.(check int) "no violations" 0 tr.Hydra.Tls_sim.stats.violations

let serial_chain_src =
  "int[] a;\n\
   def main() { a = new int[500]; a[0] = 1; for (int i = 1; i < 500; i = i + 1) { a[i] = a[i-1] + 1; } print_int(a[499]); }"

let test_serial_chain_has_violations () =
  let _, tls = compile_both serial_chain_src in
  let tr = Hydra.Tls_sim.run tls in
  Alcotest.(check bool) "violations occurred" true
    (tr.Hydra.Tls_sim.stats.violations > 50)

let test_forwarding_counted () =
  (* store early in iteration i, load it late in iteration i+1: by the
     time the successor loads, the predecessor has buffered but not yet
     committed the value -> served by cross-thread forwarding *)
  let _, tls =
    compile_both
      "int[] a;\n\
       int[] b;\n\
       def main() {\n\
       a = new int[400]; b = new int[400];\n\
       for (int i = 1; i < 400; i = i + 1) {\n\
       a[i] = i * 3;\n\
       int t = i;\n\
       t = t * 5 % 997; t = t * 7 % 991; t = t * 11 % 983;\n\
       t = t * 13 % 977; t = t * 17 % 971; t = t * 19 % 967;\n\
       b[i] = t + a[i - 1];\n\
       }\n\
       print_int(b[399]);\n\
       }"
  in
  let tr = Hydra.Tls_sim.run tls in
  Alcotest.(check bool) "some forwarded loads" true
    (tr.Hydra.Tls_sim.stats.forwarded_loads > 0)

let test_spec_stats_sane () =
  let _, tls =
    compile_both
      "int[] a;\n\
       def main() { a = new int[100]; for (int i = 0; i < 100; i = i + 1) { a[i] = i; } print_int(a[99]); }"
  in
  let tr = Hydra.Tls_sim.run tls in
  Alcotest.(check int) "one loop entered" 1 tr.Hydra.Tls_sim.stats.loops_entered;
  (* 100 iterations + the exit-taking thread *)
  Alcotest.(check bool) "committed ~101 threads" true
    (tr.Hydra.Tls_sim.stats.threads_committed >= 100
    && tr.Hydra.Tls_sim.stats.threads_committed <= 102);
  Alcotest.(check bool) "spec cycles accounted" true
    (tr.Hydra.Tls_sim.stats.spec_cycles > 0)

(* Allocation budget of the simulator's cycle loop, in minor-heap words
   per simulated cycle. The boxed [Value.Int] results of ALU ops make
   up most of what remains; the speculative buffers, the per-cycle
   passes and the loads themselves allocate nothing in steady state. *)
let check_alloc_budget name src ~budget =
  let _, tls = compile_both src in
  let before = Gc.minor_words () in
  let r = Hydra.Tls_sim.run tls in
  let w = (Gc.minor_words () -. before) /. float_of_int r.Hydra.Tls_sim.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f words/cycle <= %.0f" name w budget)
    true (w <= budget)

let test_alloc_budget () =
  (* the measured values, rounded up: 3.5 and 4.6 *)
  check_alloc_budget "dependence-free loop" parallel_loop_src ~budget:4.;
  check_alloc_budget "serial chain" serial_chain_src ~budget:5.

(* Simulated behaviour pinned at machine points the golden and baseline
   sweep gates (default machine, no sync) never visit. Each row is
   [cycles; threads_committed; violations; overflow_stalls;
   forwarded_loads; loops_entered; spec_cycles; sync_stalls], recorded
   from the hashtable-buffered simulator this one replaced; every root
   loop the tracer would see is selected, so violations, forwarding,
   overflow stalls and sync stalls all occur. *)
let pinned_points =
  let d = Hydra.Config.default in
  [
    ("cpus=1", { d with Hydra.Config.num_cpus = 1 }, false);
    ("cpus=8", { d with Hydra.Config.num_cpus = 8 }, false);
    ( "buffers 4/2",
      { d with Hydra.Config.load_buffer_lines = 4; store_buffer_lines = 2 },
      false );
    ("sync", d, true);
  ]

let pinned =
  [
    ( "FourierTest", 4,
      [
        [ 110219; 10; 0; 0; 0; 2; 110166; 0 ];
        [ 27670; 10; 0; 0; 0; 2; 27617; 0 ];
        [ 27686; 10; 0; 0; 0; 2; 27633; 0 ];
        [ 27686; 10; 0; 0; 0; 2; 27633; 0 ];
      ] );
    ( "monteCarlo", 1500,
      [
        [ 234080; 1501; 0; 0; 0; 1; 234059; 0 ];
        [ 29405; 1501; 0; 0; 0; 1; 29384; 0 ];
        [ 58580; 1501; 0; 0; 0; 1; 58559; 0 ];
        [ 58580; 1501; 0; 0; 0; 1; 58559; 0 ];
      ] );
    ( "Assignment", 12,
      [
        [ 42077; 184; 0; 0; 0; 4; 41998; 0 ];
        [ 15102; 184; 1435; 0; 1019; 4; 15023; 0 ];
        [ 24011; 184; 525; 14; 443; 4; 23932; 0 ];
        [ 16319; 184; 511; 0; 441; 4; 16240; 4 ];
      ] );
    ( "LuFactor", 9,
      [
        [ 26111; 29; 0; 0; 0; 3; 26044; 0 ];
        [ 15905; 29; 930; 0; 892; 3; 15838; 0 ];
        [ 21769; 29; 416; 13; 524; 3; 21702; 0 ];
        [ 15802; 29; 343; 0; 563; 3; 15735; 7 ];
      ] );
    ( "fft", 128,
      [
        [ 130307; 386; 0; 0; 0; 3; 31527; 0 ];
        [ 120726; 386; 4031; 0; 1216; 3; 21946; 0 ];
        [ 121766; 386; 1592; 0; 526; 3; 22986; 0 ];
        [ 121330; 386; 746; 0; 736; 3; 22550; 619 ];
      ] );
  ]

let test_pinned_machines () =
  List.iter
    (fun (name, n, rows) ->
      let _, tls =
        compile_both ((Workloads.Registry.find_exn name).Workloads.Workload.source n)
      in
      List.iter2
        (fun (point, config, sync) expected ->
          let r = Hydra.Tls_sim.run ~config ~sync tls in
          let s = r.Hydra.Tls_sim.stats in
          Alcotest.(check (list int))
            (Printf.sprintf "%s at %s" name point)
            expected
            [
              r.Hydra.Tls_sim.cycles;
              s.threads_committed;
              s.violations;
              s.overflow_stalls;
              s.forwarded_loads;
              s.loops_entered;
              s.spec_cycles;
              s.sync_stalls;
            ])
        pinned_points rows)
    pinned

(* Overflow stall: a loop whose per-iteration footprint exceeds the
   store buffer serializes but stays correct. *)
let test_overflow_stall () =
  let src =
    "int[] a;\n\
     def main() {\n\
     a = new int[40000];\n\
     for (int i = 0; i < 5; i = i + 1) {\n\
     for (int j = 0; j < 8000; j = j + 1) { a[i * 8000 + j] = i + j; }\n\
     }\n\
     print_int(a[39999]);\n\
     }"
  in
  let tac = Ir.Lower.compile src in
  let table = Compiler.Stl_table.build tac in
  (* select the OUTER loop: each thread writes 8000 words = 1000 lines
     >> the 64-line store buffer *)
  let outer =
    Array.to_list table.Compiler.Stl_table.stls
    |> List.find (fun (s : Compiler.Stl_table.stl) -> s.Compiler.Stl_table.static_depth = 1)
  in
  let plain = Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain table tac in
  let tls =
    Compiler.Codegen.generate
      ~mode:(Compiler.Codegen.Tls { selected = [ outer.Compiler.Stl_table.id ] })
      table tac
  in
  let sr = Hydra.Seq_interp.run plain in
  let tr = Hydra.Tls_sim.run tls in
  Alcotest.(check (list string)) "correct under stalls"
    (List.map Ir.Value.to_string sr.Hydra.Seq_interp.output)
    (List.map Ir.Value.to_string tr.Hydra.Tls_sim.output);
  Alcotest.(check bool) "threads stalled" true
    (tr.Hydra.Tls_sim.stats.overflow_stalls > 0);
  Alcotest.(check bool) "little speedup" true
    (float_of_int sr.Hydra.Seq_interp.cycles
     /. float_of_int tr.Hydra.Tls_sim.cycles
    < 2.)

(* A selected loop in a callee, entered from a caller loop: speculation
   starts and ends on every call. *)
let test_callee_stl () =
  let src =
    "int[] a;\n\
     def fill(int base) {\n\
     for (int i = 0; i < 50; i = i + 1) {\n\
     a[base + i] = base + i * 2;\n\
     }\n\
     }\n\
     def main() {\n\
     a = new int[500];\n\
     for (int r = 0; r < 10; r = r + 1) {\n\
     fill(r * 50);\n\
     }\n\
     int s = 0;\n\
     for (int k = 0; k < 500; k = k + 1) { s = s + a[k]; }\n\
     print_int(s);\n\
     }"
  in
  let tac = Ir.Lower.compile src in
  let table = Compiler.Stl_table.build tac in
  (* select only fill's loop *)
  let fill_stl =
    Array.to_list table.Compiler.Stl_table.stls
    |> List.find (fun (s : Compiler.Stl_table.stl) ->
           s.Compiler.Stl_table.func_name = "fill")
  in
  let plain = Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain table tac in
  let tls =
    Compiler.Codegen.generate
      ~mode:(Compiler.Codegen.Tls { selected = [ fill_stl.Compiler.Stl_table.id ] })
      table tac
  in
  let sr = Hydra.Seq_interp.run plain in
  let tr = Hydra.Tls_sim.run tls in
  Alcotest.(check (list string)) "output"
    (List.map Ir.Value.to_string sr.Hydra.Seq_interp.output)
    (List.map Ir.Value.to_string tr.Hydra.Tls_sim.output);
  Alcotest.(check int) "10 speculative activations" 10
    tr.Hydra.Tls_sim.stats.loops_entered

(* Only one decomposition can be active at a time (paper constraint):
   a selected caller loop dynamically contains a selected callee loop;
   the inner one must run sequentially inside the threads, and results
   stay correct. *)
let test_non_reentrant_nesting () =
  let src =
    "int[] a;\n\
     def inner_sum(int base) : int {\n\
     int s = 0;\n\
     for (int i = 0; i < 20; i = i + 1) {\n\
     s = s + a[base + i];\n\
     }\n\
     return s;\n\
     }\n\
     def main() {\n\
     a = new int[400];\n\
     for (int i = 0; i < 400; i = i + 1) { a[i] = i % 13; }\n\
     int total = 0;\n\
     for (int r = 0; r < 20; r = r + 1) {\n\
     total = total + inner_sum(r * 20);\n\
     }\n\
     print_int(total);\n\
     }"
  in
  let tac = Ir.Lower.compile src in
  let table = Compiler.Stl_table.build tac in
  let inner =
    Array.to_list table.Compiler.Stl_table.stls
    |> List.find (fun (s : Compiler.Stl_table.stl) ->
           s.Compiler.Stl_table.func_name = "inner_sum")
  in
  (* try every main loop paired with the inner selection *)
  let main_loops =
    Array.to_list table.Compiler.Stl_table.stls
    |> List.filter (fun (s : Compiler.Stl_table.stl) ->
           s.Compiler.Stl_table.func_name = "main")
  in
  let plain = Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain table tac in
  let sr = Hydra.Seq_interp.run plain in
  List.iter
    (fun (m : Compiler.Stl_table.stl) ->
      let tls =
        Compiler.Codegen.generate
          ~mode:
            (Compiler.Codegen.Tls
               {
                 selected = [ m.Compiler.Stl_table.id; inner.Compiler.Stl_table.id ];
               })
          table tac
      in
      let tr = Hydra.Tls_sim.run tls in
      Alcotest.(check (list string))
        (Printf.sprintf "correct with main loop %d + inner both selected"
           m.Compiler.Stl_table.id)
        (List.map Ir.Value.to_string sr.Hydra.Seq_interp.output)
        (List.map Ir.Value.to_string tr.Hydra.Tls_sim.output))
    main_loops

(* Selecting nothing produces a program equivalent to plain. *)
let test_empty_selection () =
  let src =
    "def main() { int s = 0; for (int i = 0; i < 30; i = i + 1) { s = s + i; } print_int(s); }"
  in
  let tac = Ir.Lower.compile src in
  let table = Compiler.Stl_table.build tac in
  let tls =
    Compiler.Codegen.generate ~mode:(Compiler.Codegen.Tls { selected = [] }) table tac
  in
  let tr = Hydra.Tls_sim.run tls in
  Alcotest.(check (list string)) "output" [ "435" ]
    (List.map Ir.Value.to_string tr.Hydra.Tls_sim.output);
  Alcotest.(check int) "no speculation" 0 tr.Hydra.Tls_sim.stats.loops_entered

(* The TLS master CPU is the sequential interpreter: with nothing
   selected, every registry workload costs exactly the cycles of a
   plain run and prints the same values. *)
let test_master_is_seq_interp () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let plain, tls =
        compile_both ~selected:[] (Workloads.Registry.default_source w)
      in
      let sr = Hydra.Seq_interp.run plain in
      let tr = Hydra.Tls_sim.run tls in
      let name = w.Workloads.Workload.name in
      Alcotest.(check int) (name ^ " cycles") sr.Hydra.Seq_interp.cycles
        tr.Hydra.Tls_sim.cycles;
      Alcotest.(check (list string))
        (name ^ " output")
        (List.map Ir.Value.to_string sr.Hydra.Seq_interp.output)
        (List.map Ir.Value.to_string tr.Hydra.Tls_sim.output))
    Workloads.Registry.all

(* The simulator's fuel is the sequential interpreter's: one exception,
   raised from the master loop and from a speculative thread alike. *)
let test_out_of_fuel () =
  let src = "def main() { int i = 0; while (1) { i = i + 1; } }" in
  let _, master = compile_both ~selected:[] src in
  let _, spec = compile_both src in
  Alcotest.(check bool) "loop selected" true
    (spec.Hydra.Native.stl_plans <> []);
  List.iter
    (fun (what, prog) ->
      Alcotest.check_raises what (Hydra.Seq_interp.Out_of_fuel 10_000)
        (fun () -> ignore (Hydra.Tls_sim.run ~fuel:10_000 prog)))
    [ ("master loop", master); ("speculative loop", spec) ]

(* Learned synchronization (the [~sync:true] extension): correctness is
   preserved and violations drop on a store-early / load-late chain. *)
let sync_src =
  "int[] a;\n\
   int[] b;\n\
   def main() {\n\
   a = new int[600]; b = new int[600];\n\
   for (int i = 1; i < 600; i = i + 1) {\n\
   int t = i;\n\
   t = t * 5 % 997; t = t * 7 % 991; t = t * 11 % 983;\n\
   a[i] = a[i - 1] + t % 7;\n\
   b[i] = t;\n\
   }\n\
   print_int(a[599]);\n\
   print_int(b[599]);\n\
   }"

let test_sync_correct_and_fewer_violations () =
  let plain, tls = compile_both sync_src in
  let seq_out = outputs_of_seq plain in
  let nosync = Hydra.Tls_sim.run tls in
  let wsync = Hydra.Tls_sim.run ~sync:true tls in
  Alcotest.(check (list string)) "sync output correct" seq_out
    (List.map Ir.Value.to_string wsync.Hydra.Tls_sim.output);
  Alcotest.(check bool)
    (Printf.sprintf "fewer violations (%d -> %d)"
       nosync.Hydra.Tls_sim.stats.violations wsync.Hydra.Tls_sim.stats.violations)
    true
    (wsync.Hydra.Tls_sim.stats.violations
    < nosync.Hydra.Tls_sim.stats.violations);
  Alcotest.(check bool) "sync stalls recorded" true
    (wsync.Hydra.Tls_sim.stats.sync_stalls > 0)

let test_sync_no_effect_when_clean () =
  (* a dependence-free loop never learns anything *)
  let plain, tls =
    compile_both
      "int[] a;\n\
       def main() { a = new int[300]; for (int i = 0; i < 300; i = i + 1) { a[i] = i; } print_int(a[299]); }"
  in
  let wsync = Hydra.Tls_sim.run ~sync:true tls in
  Alcotest.(check (list string)) "output" (outputs_of_seq plain)
    (List.map Ir.Value.to_string wsync.Hydra.Tls_sim.output);
  Alcotest.(check int) "no sync stalls" 0 wsync.Hydra.Tls_sim.stats.sync_stalls

(* qcheck: sync mode also always matches sequential output. *)
let prop_sync_equiv =
  QCheck.Test.make ~name:"sync tls == sequential on random inputs" ~count:15
    QCheck.(pair (int_range 2 50) (int_range 0 1000))
    (fun (n, salt) ->
      let src =
        Printf.sprintf
          "int[] a;\n\
           def main() {\n\
           a = new int[%d];\n\
           a[0] = %d;\n\
           for (int j = 1; j < %d; j = j + 1) {\n\
           a[j] = (a[j - 1] * 13 + j) %% 101;\n\
           }\n\
           print_int(a[%d]);\n\
           }"
          n salt n (n - 1)
      in
      let plain, tls = compile_both src in
      outputs_of_seq plain
      = List.map Ir.Value.to_string (Hydra.Tls_sim.run ~sync:true tls).Hydra.Tls_sim.output)

(* qcheck: for random small arrays and a mixed workload template, TLS
   execution always matches sequential output. *)
let prop_tls_equiv =
  QCheck.Test.make ~name:"tls == sequential on random inputs" ~count:25
    QCheck.(pair (int_range 2 60) (int_range 0 1000))
    (fun (n, salt) ->
      let src =
        Printf.sprintf
          "int[] a;\n\
           def main() {\n\
           a = new int[%d];\n\
           for (int i = 0; i < %d; i = i + 1) { a[i] = (i * 7 + %d) %% 13; }\n\
           int s = 0;\n\
           int carry = 0;\n\
           for (int j = 0; j < %d; j = j + 1) {\n\
           if (a[j] %% 2 == 0) { carry = carry + a[j]; }\n\
           s = s + carry;\n\
           a[j] = s %% 31;\n\
           }\n\
           print_int(s);\n\
           print_int(carry);\n\
           print_int(a[%d]);\n\
           }"
          n n salt n (n - 1)
      in
      let plain, tls = compile_both src in
      outputs_of_seq plain = outputs_of_tls tls)

let suites =
  [
    ("tls.equivalence", equivalence_cases @ [ QCheck_alcotest.to_alcotest prop_tls_equiv ]);
    ( "tls.performance",
      [
        Alcotest.test_case "parallel loop speeds up" `Quick
          test_speedup_parallel_loop;
        Alcotest.test_case "serial chain violates" `Quick
          test_serial_chain_has_violations;
        Alcotest.test_case "store-load forwarding" `Quick test_forwarding_counted;
        Alcotest.test_case "spec stats" `Quick test_spec_stats_sane;
        Alcotest.test_case "overflow stall" `Quick test_overflow_stall;
        Alcotest.test_case "allocation budget" `Quick test_alloc_budget;
        Alcotest.test_case "pinned non-default machines" `Quick
          test_pinned_machines;
      ] );
    ( "tls.structure",
      [
        Alcotest.test_case "callee STL" `Quick test_callee_stl;
        Alcotest.test_case "non-reentrant nesting" `Quick
          test_non_reentrant_nesting;
        Alcotest.test_case "empty selection" `Quick test_empty_selection;
        Alcotest.test_case "master is the sequential interpreter" `Quick
          test_master_is_seq_interp;
        Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
      ] );
    ( "tls.sync",
      [
        Alcotest.test_case "correct, fewer violations" `Quick
          test_sync_correct_and_fewer_violations;
        Alcotest.test_case "inert on clean loops" `Quick
          test_sync_no_effect_when_clean;
        QCheck_alcotest.to_alcotest prop_sync_equiv;
      ] );
  ]
