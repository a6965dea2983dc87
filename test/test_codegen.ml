(* Code-generation tests: annotation placement and balance, the two
   paper optimizations (first-load-per-block, read-stats hoisting), and
   equivalence of plain vs. annotated execution. *)

module N = Hydra.Native

let gen mode src =
  let tac = Ir.Lower.compile src in
  let table = Compiler.Stl_table.build tac in
  (Compiler.Codegen.generate ~mode table tac, table)

let count_static pred (prog : N.program) =
  Array.fold_left
    (fun acc (f : N.func) ->
      Array.fold_left (fun acc i -> if pred i then acc + 1 else acc) acc f.N.code)
    0 prog.N.funcs

let loop_src =
  "int[] a;\n\
   def main() {\n\
   a = new int[100];\n\
   int carry = 0;\n\
   for (int i = 0; i < 100; i = i + 1) {\n\
   if (a[i] > 0) { carry = carry + a[i]; } else { carry = carry - 1; }\n\
   a[i] = carry;\n\
   }\n\
   print_int(carry);\n\
   }"

let test_plain_has_no_annotations () =
  let prog, _ = gen Compiler.Codegen.Plain loop_src in
  Alcotest.(check int) "no annotations" 0
    (count_static
       (function
         | N.Sloop _ | N.Eloop _ | N.Eoi _ | N.Lwl _ | N.Swl _ | N.Read_stats _
           ->
             true
         | _ -> false)
       prog)

let test_annotated_static_structure () =
  let prog, _ = gen (Compiler.Codegen.Annotated { optimized = false }) loop_src in
  Alcotest.(check bool) "has sloop" true
    (count_static (function N.Sloop _ -> true | _ -> false) prog > 0);
  Alcotest.(check bool) "has eoi" true
    (count_static (function N.Eoi _ -> true | _ -> false) prog > 0);
  Alcotest.(check bool) "has eloop" true
    (count_static (function N.Eloop _ -> true | _ -> false) prog > 0);
  (* 'carry' is a genuinely carried local -> lwl/swl present *)
  Alcotest.(check bool) "has lwl" true
    (count_static (function N.Lwl _ -> true | _ -> false) prog > 0);
  Alcotest.(check bool) "has swl" true
    (count_static (function N.Swl _ -> true | _ -> false) prog > 0)

(* Dynamic balance: every sloop is matched by an eloop, every thread
   start by at most one bank shift; run with a counting sink. *)
let test_dynamic_balance () =
  let prog, _ = gen (Compiler.Codegen.Annotated { optimized = true }) loop_src in
  let opens = ref 0 and closes = ref 0 and depth = ref 0 and maxd = ref 0 in
  let sink =
    {
      Hydra.Trace.null_sink with
      Hydra.Trace.on_sloop =
        (fun ~stl:_ ~nlocals:_ ~frame:_ ~now:_ ->
          incr opens;
          incr depth;
          if !depth > !maxd then maxd := !depth);
      on_eloop =
        (fun ~stl:_ ~now:_ ->
          incr closes;
          decr depth);
    }
  in
  ignore (Hydra.Seq_interp.run ~tracing:true ~sink prog);
  Alcotest.(check int) "balanced" !opens !closes;
  Alcotest.(check int) "depth returns to zero" 0 !depth;
  Alcotest.(check int) "loop entered once" 1 !opens

(* Return from inside a loop still closes the loop's annotations. *)
let test_return_inside_loop_balanced () =
  let src =
    "int[] a;\n\
     def find(int v) : int {\n\
     for (int i = 0; i < 100; i = i + 1) {\n\
     if (a[i] == v) { return i; }\n\
     }\n\
     return -1;\n\
     }\n\
     def main() { a = new int[100]; a[7] = 3; print_int(find(3)); }"
  in
  let prog, _ = gen (Compiler.Codegen.Annotated { optimized = true }) src in
  let depth = ref 0 and bad = ref false in
  let sink =
    {
      Hydra.Trace.null_sink with
      Hydra.Trace.on_sloop = (fun ~stl:_ ~nlocals:_ ~frame:_ ~now:_ -> incr depth);
      on_eloop =
        (fun ~stl:_ ~now:_ ->
          decr depth;
          if !depth < 0 then bad := true);
    }
  in
  ignore (Hydra.Seq_interp.run ~tracing:true ~sink prog);
  Alcotest.(check int) "balanced at exit" 0 !depth;
  Alcotest.(check bool) "never negative" false !bad

(* Optimized annotations strictly reduce dynamic lwl events (first load
   per block only) without losing store events. *)
let test_optimized_fewer_lwl () =
  let src =
    "def main() {\n\
     int x = 0;\n\
     for (int i = 0; i < 50; i = i + 1) {\n\
     if (i % 3 == 0) { x = x + i + x % 7 + x % 11; }\n\
     }\n\
     print_int(x);\n\
     }"
  in
  let dyn optimized =
    let prog, _ = gen (Compiler.Codegen.Annotated { optimized }) src in
    let lwl = ref 0 and swl = ref 0 in
    let sink =
      {
        Hydra.Trace.null_sink with
        Hydra.Trace.on_local_load = (fun ~frame:_ ~slot:_ ~pc:_ ~now:_ -> incr lwl);
        on_local_store = (fun ~frame:_ ~slot:_ ~now:_ -> incr swl);
      }
    in
    ignore (Hydra.Seq_interp.run ~tracing:true ~sink prog);
    (!lwl, !swl)
  in
  let base_lwl, base_swl = dyn false in
  let opt_lwl, opt_swl = dyn true in
  Alcotest.(check bool) "fewer lwl" true (opt_lwl < base_lwl);
  Alcotest.(check bool) "lwl still present" true (opt_lwl > 0);
  Alcotest.(check int) "same swl" base_swl opt_swl

(* Read-stats hoisting: in an only-child nest the inner loop's stats
   read moves to the outer exit, reducing dynamic read_stats events. *)
let test_read_stats_hoisting () =
  let src =
    "int[] a;\n\
     def main() {\n\
     a = new int[1];\n\
     int acc = 0;\n\
     for (int i = 0; i < 20; i = i + 1) {\n\
     int j = 0;\n\
     while (j < 20) { if (a[0] > acc) { acc = acc + 1; } j = j + 1; }\n\
     }\n\
     print_int(acc);\n\
     }"
  in
  let dyn optimized =
    let prog, _ = gen (Compiler.Codegen.Annotated { optimized }) src in
    let reads = ref 0 in
    let sink =
      {
        Hydra.Trace.null_sink with
        Hydra.Trace.on_read_stats = (fun ~stl:_ ~now:_ -> incr reads);
      }
    in
    ignore (Hydra.Seq_interp.run ~tracing:true ~sink prog);
    !reads
  in
  let base = dyn false and opt = dyn true in
  (* base: inner read_stats on each of 20 inner exits + 1 outer;
     optimized: both read at the single outer exit *)
  Alcotest.(check int) "base reads" 21 base;
  Alcotest.(check int) "hoisted reads" 2 opt

(* Annotations never change program results. *)
let test_annotations_preserve_semantics () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let src = w.Workloads.Workload.source (max 4 (w.Workloads.Workload.default_size / 8)) in
      let plain, _ = gen Compiler.Codegen.Plain src in
      let anno, _ = gen (Compiler.Codegen.Annotated { optimized = true }) src in
      let r1 = Hydra.Seq_interp.run plain in
      let r2 = Hydra.Seq_interp.run ~tracing:true anno in
      Alcotest.(check (list string))
        (w.Workloads.Workload.name ^ " outputs")
        (List.map Ir.Value.to_string r1.Hydra.Seq_interp.output)
        (List.map Ir.Value.to_string r2.Hydra.Seq_interp.output))
    [
      Workloads.Registry.find_exn "Huffman";
      Workloads.Registry.find_exn "NumHeapSort";
      Workloads.Registry.find_exn "fft";
    ]

(* Tracing-disabled annotated code costs the same as it would without
   tracing overhead being charged. *)
let test_annotation_cost_only_when_tracing () =
  let prog, _ = gen (Compiler.Codegen.Annotated { optimized = true }) loop_src in
  let traced = Hydra.Seq_interp.run ~tracing:true prog in
  let untraced = Hydra.Seq_interp.run ~tracing:false prog in
  Alcotest.(check bool) "tracing costs cycles" true
    (traced.Hydra.Seq_interp.cycles > untraced.Hydra.Seq_interp.cycles)

(* TLS plan contents: inductors, reductions, globalized carried locals,
   and invariants are classified into the right plan fields. *)
let test_tls_plan_contents () =
  let src =
    "int[] a;\n\
     def main() {\n\
     a = new int[100];\n\
     int k = 5;\n\
     int sum = 0;\n\
     int carry = 0;\n\
     for (int i = 0; i < 100; i = i + 1) {\n\
     sum = sum + a[i] * k;\n\
     if (a[i] > 50) { carry = carry + 1; }\n\
     a[i] = carry;\n\
     }\n\
     print_int(sum);\n\
     print_int(carry);\n\
     }"
  in
  let tac = Ir.Lower.compile src in
  let table = Compiler.Stl_table.build tac in
  let stl = (Compiler.Stl_table.stl_of table 0).Compiler.Stl_table.id in
  let prog =
    Compiler.Codegen.generate ~mode:(Compiler.Codegen.Tls { selected = [ stl ] })
      table tac
  in
  match prog.Hydra.Native.stl_plans with
  | [ (_, p) ] ->
      let f = Ir.Tac.find_func tac "main" in
      let slot name =
        let s = ref (-1) in
        Array.iteri (fun i n -> if n = name then s := i) f.Ir.Tac.slot_names;
        !s
      in
      Alcotest.(check (list (pair int int)))
        "inductor i step 1"
        [ (slot "i", 1) ]
        p.Hydra.Native.inductors;
      Alcotest.(check (list int)) "invariant k" [ slot "k" ] p.Hydra.Native.invariants;
      Alcotest.(check int) "one reduction (sum)" 1
        (List.length p.Hydra.Native.reductions);
      Alcotest.(check bool) "sum is the reduction" true
        (List.mem_assoc (slot "sum") p.Hydra.Native.reductions);
      Alcotest.(check int) "carry globalized" 1
        (List.length p.Hydra.Native.globalized);
      Alcotest.(check bool) "carry's heap cell is fresh" true
        (snd (List.hd p.Hydra.Native.globalized) >= Array.length tac.Ir.Tac.globals);
      (* the globalized cell bumped the program's heap base *)
      Alcotest.(check bool) "heap base extended" true
        (prog.Hydra.Native.heap_base > tac.Ir.Tac.heap_base)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 plan, got %d" (List.length l))

(* program-wide PCs are unique and resolvable *)
let test_pc_bases () =
  let src =
    "def f() : int { return 1; } def g() : int { return 2; } def main() { print_int(f() + g()); }"
  in
  let prog, _ = gen Compiler.Codegen.Plain src in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun (f : N.func) ->
      Array.iteri
        (fun i _ ->
          let pc = f.N.pc_base + i in
          if Hashtbl.mem seen pc then Alcotest.fail "duplicate pc";
          Hashtbl.replace seen pc f.N.name)
        f.N.code)
    prog.N.funcs;
  Alcotest.(check bool) "has pcs" true (Hashtbl.length seen > 0)

(* The site table of every registry workload's profiling build: one
   entry per annotation instruction and none elsewhere, a stub jump only
   on a stub's first annotation, and a program identical to [generate]'s.
   The digest pins the optimized annotated builds themselves — the
   tracer bins arcs by their load PCs, so they must not move. *)
let opt_build_text (p : N.program) =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun (f : N.func) ->
            Format.asprintf "@%d %a" f.N.pc_base N.pp_func f)
          p.N.funcs))

let opt_builds_digest = "1a61551b503ff46574f96f82c7da6ce3"

let test_site_table () =
  let mode = Compiler.Codegen.Annotated { optimized = true } in
  let texts =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let name = w.Workloads.Workload.name in
        let tac =
          Compiler.Opt.program
            (Ir.Lower.compile (Workloads.Registry.default_source w))
        in
        let table = Compiler.Stl_table.build tac in
        let prog, sites = Compiler.Codegen.generate_with_sites ~mode table tac in
        Alcotest.(check bool)
          (name ^ ": same program as generate")
          true
          (prog = Compiler.Codegen.generate ~mode table tac);
        let code =
          Array.concat
            (List.map (fun (f : N.func) -> f.N.code) (Array.to_list prog.N.funcs))
        in
        let site_at = Array.make (Array.length code) None in
        Array.iter
          (fun (s : Compiler.Codegen.site) ->
            site_at.(s.Compiler.Codegen.pc) <- Some s)
          sites;
        Array.iteri
          (fun pc ins ->
            match site_at.(pc) with
            | None ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: pc %d has no site" name pc)
                  false (N.is_annotation ins)
            | Some s ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: site at annotation pc %d" name pc)
                  true (N.is_annotation ins);
                (* own cost, plus a stub's closing jump at most *)
                let own = N.instr_cost ins in
                Alcotest.(check bool)
                  (Printf.sprintf "%s: plain gap at pc %d" name pc)
                  true
                  (s.Compiler.Codegen.plain_gap = own
                  || s.Compiler.Codegen.plain_gap = own + Hydra.Cost.cost_simple);
                if s.Compiler.Codegen.base_locals <> 0 then
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: lwl delta on an lwl at pc %d" name pc)
                    true
                    (match ins with N.Lwl _ -> true | _ -> false))
          code;
        name ^ opt_build_text prog)
      Workloads.Registry.all
  in
  Alcotest.(check string) "optimized annotated builds unchanged"
    opt_builds_digest
    (Digest.to_hex (Digest.string (String.concat "" texts)))

(* A base build prices only itself: no base-minus-this deltas. *)
let test_base_build_sites () =
  let tac = Ir.Lower.compile loop_src in
  let table = Compiler.Stl_table.build tac in
  let _, sites =
    Compiler.Codegen.generate_with_sites
      ~mode:(Compiler.Codegen.Annotated { optimized = false })
      table tac
  in
  Alcotest.(check bool) "has sites" true (Array.length sites > 0);
  Array.iter
    (fun (s : Compiler.Codegen.site) ->
      Alcotest.(check (pair int int)) "no deltas" (0, 0)
        (s.Compiler.Codegen.base_locals, s.Compiler.Codegen.base_read_stats))
    sites;
  List.iter
    (fun mode ->
      Alcotest.(check int) "no sites without annotations" 0
        (Array.length (snd (Compiler.Codegen.generate_with_sites ~mode table tac))))
    Compiler.Codegen.[ Plain; Tls { selected = [] } ]

let suites =
  [
    ( "codegen.tls_plans",
      [
        Alcotest.test_case "plan contents" `Quick test_tls_plan_contents;
        Alcotest.test_case "pc bases" `Quick test_pc_bases;
      ] );
    ( "codegen.annotations",
      [
        Alcotest.test_case "plain is clean" `Quick test_plain_has_no_annotations;
        Alcotest.test_case "static structure" `Quick test_annotated_static_structure;
        Alcotest.test_case "dynamic balance" `Quick test_dynamic_balance;
        Alcotest.test_case "return inside loop" `Quick
          test_return_inside_loop_balanced;
        Alcotest.test_case "optimized fewer lwl" `Quick test_optimized_fewer_lwl;
        Alcotest.test_case "read-stats hoisting" `Quick test_read_stats_hoisting;
        Alcotest.test_case "semantics preserved" `Slow
          test_annotations_preserve_semantics;
        Alcotest.test_case "cost gated on tracing" `Quick
          test_annotation_cost_only_when_tracing;
        Alcotest.test_case "site table" `Quick test_site_table;
        Alcotest.test_case "base build sites" `Quick test_base_build_sites;
      ] );
  ]
