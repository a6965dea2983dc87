type anno_run = {
  cycles : int;
  slowdown : float;
  locals_cycles : int;
  read_stats_cycles : int;
  loop_anno_cycles : int;
}

type report = {
  name : string;
  hw : Hydra.Config.t;
  plain_cycles : int;
  plain_output : Ir.Value.t list;
  base : anno_run;
  opt : anno_run;
  stats : (int * Test_core.Stats.t) list;
  estimates : (int * Test_core.Analyzer.estimate) list;
  selection : Test_core.Analyzer.selection;
  tls_cycles : int;
  tls_output : Ir.Value.t list;
  actual_speedup : float;
  outputs_match : bool;
  spec_stats : Hydra.Tls_sim.spec_stats;
  loop_count : int;
  max_static_depth : int;
  max_dynamic_depth : int;
  table : Compiler.Stl_table.t;
  tac : Ir.Tac.program;
  annotated_program : Hydra.Native.program;
  tracer : Test_core.Tracer.t;
  method_candidates : Test_core.Method_profile.candidate list;
      (** method-return decompositions NOT covered by loop STLs
          (paper Sec. 4.1 expects this to be nearly empty) *)
}

(* Pipeline phase names, shared with ARCHITECTURE.md's JSON schema. *)
let phase_frontend = "frontend"
let phase_profile_opt = "profile-opt"
let phase_analyze = "analyze"
let phase_recompile = "recompile-tls"
let phase_tls = "tls-run"

let phases =
  [
    phase_frontend;
    phase_profile_opt;
    phase_analyze;
    phase_recompile;
    phase_tls;
  ]

let frontend ~obs ~optimize src =
  Obs.Sink.phase obs phase_frontend (fun () ->
      let tac = Ir.Lower.compile src in
      let tac = if optimize then Compiler.Opt.program tac else tac in
      (tac, Compiler.Stl_table.build tac))

(* the capture tee wraps outermost, so the writer records the raw
   interpreter stream — the same stream every pass-through wrapper
   below it forwards to the tracer, hence what replay must feed back *)
let capture_tee capture sink =
  match capture with
  | None -> sink
  | Some w -> Hydra.Trace.tee sink (Trace_store.Writer.sink w)

(* The one sequential execution: the optimized annotated build, traced.
   Its per-site execution counts price the plain and base builds
   exactly (see {!Compiler.Codegen.site}). *)
type profiled = {
  plain_cycles : int;
  output : Ir.Value.t list;
  base : anno_run;
  opt : anno_run;
  tracer : Test_core.Tracer.t;
  prog : Hydra.Native.program;
}

let profiled_run ~hw ?fuel ~obs ~wrap_sink table tac =
  Obs.Sink.phase obs phase_profile_opt @@ fun () ->
  let prog, sites =
    Compiler.Codegen.generate_with_sites
      ~mode:(Compiler.Codegen.Annotated { optimized = true })
      table tac
  in
  (* the tracer models the same machine the analysis targets *)
  let tracer =
    Test_core.Tracer.create ~config:(Test_core.Tracer.config_of hw) ~obs ()
  in
  let counts = Counting_sink.create_counts () in
  let sink =
    wrap_sink (Counting_sink.wrap counts (Test_core.Tracer.sink tracer))
  in
  let r = Hydra.Seq_interp.run ?fuel ~tracing:true ~sink prog in
  let executed = r.Hydra.Seq_interp.site_counts in
  let total cycles_of =
    Array.fold_left
      (fun acc (site : Compiler.Codegen.site) ->
        acc + (executed.(site.pc) * cycles_of site))
      0 sites
  in
  let plain_cycles =
    r.Hydra.Seq_interp.cycles - total (fun s -> s.Compiler.Codegen.plain_gap)
  in
  let slowdown cycles =
    Float.of_int cycles /. Float.of_int (max 1 plain_cycles)
  in
  let opt =
    {
      cycles = r.Hydra.Seq_interp.cycles;
      slowdown = slowdown r.Hydra.Seq_interp.cycles;
      locals_cycles = Counting_sink.locals_cycles counts;
      read_stats_cycles = Counting_sink.read_stats_cycles counts;
      loop_anno_cycles = Counting_sink.loop_cycles counts;
    }
  in
  let extra_locals = total (fun s -> s.Compiler.Codegen.base_locals) in
  let extra_read_stats = total (fun s -> s.Compiler.Codegen.base_read_stats) in
  let base_cycles = opt.cycles + extra_locals + extra_read_stats in
  let base =
    {
      opt with
      cycles = base_cycles;
      slowdown = slowdown base_cycles;
      locals_cycles = opt.locals_cycles + extra_locals;
      read_stats_cycles = opt.read_stats_cycles + extra_read_stats;
    }
  in
  { plain_cycles; output = r.Hydra.Seq_interp.output; base; opt; tracer; prog }

let profile_only ?(hw = Hydra.Config.default) ?fuel ?(obs = Obs.Sink.null)
    ?(optimize = true) ?capture src =
  let tac, table = frontend ~obs ~optimize src in
  let p =
    profiled_run ~hw ?fuel ~obs ~wrap_sink:(capture_tee capture) table tac
  in
  (p.tracer, p.plain_cycles)

let run ?(hw = Hydra.Config.default) ?fuel ?sync ?(obs = Obs.Sink.null)
    ?(optimize = true) ?capture ~name src : report =
  let tac, table = frontend ~obs ~optimize src in
  (* 1. the profiled run, which also prices the plain and base builds *)
  let methods = Test_core.Method_profile.create () in
  let { plain_cycles; output; base; opt; tracer; prog = annotated_program } =
    profiled_run ~hw ?fuel ~obs
      ~wrap_sink:(fun s ->
        capture_tee capture (Test_core.Method_profile.wrap methods s))
      table tac
  in
  (* 2. analyze & select *)
  let stats, estimates, selection =
    Obs.Sink.phase obs phase_analyze (fun () ->
        let stats = Test_core.Tracer.stats tracer in
        let estimates =
          List.map
            (fun (stl, s) ->
              (stl, Test_core.Analyzer.estimate ~config:hw s))
            stats
        in
        (* All the analyzer's cycle counts come from the annotated run, so
           the whole-program denominator must too (annotation overhead
           cancels). *)
        let selection =
          Test_core.Analyzer.select ~config:hw ~obs ~stats
            ~child_cycles:(Test_core.Tracer.child_cycles tracer)
            ~program_cycles:opt.cycles ()
        in
        (stats, estimates, selection))
  in
  (* 3. recompile chosen STLs; 4. speculative run *)
  let tls_prog =
    Obs.Sink.phase obs phase_recompile (fun () ->
        let selected =
          List.map
            (fun (c : Test_core.Analyzer.choice) -> c.chosen_stl)
            selection.chosen
        in
        Compiler.Codegen.generate ~mode:(Compiler.Codegen.Tls { selected })
          table tac)
  in
  let tr =
    Obs.Sink.phase obs phase_tls (fun () ->
        Hydra.Tls_sim.run ~config:hw ?fuel ?sync ~obs tls_prog)
  in
  {
    name;
    hw;
    plain_cycles;
    plain_output = output;
    base;
    opt;
    stats;
    estimates;
    selection;
    tls_cycles = tr.Hydra.Tls_sim.cycles;
    tls_output = tr.Hydra.Tls_sim.output;
    actual_speedup =
      Float.of_int plain_cycles /. Float.of_int (max 1 tr.Hydra.Tls_sim.cycles);
    outputs_match =
      (try List.for_all2 Ir.Value.equal output tr.Hydra.Tls_sim.output
       with Invalid_argument _ -> false);
    spec_stats = tr.Hydra.Tls_sim.stats;
    loop_count = Compiler.Stl_table.loop_count table;
    max_static_depth = Compiler.Stl_table.max_static_depth table;
    max_dynamic_depth = Test_core.Tracer.max_dynamic_depth tracer;
    table;
    tac;
    annotated_program;
    tracer;
    method_candidates =
      Test_core.Method_profile.candidates methods ~program:annotated_program
        ~program_cycles:opt.cycles ();
  }

let record_report_metrics (reg : Obs.Metrics.t) (r : report) =
  let gauge name v = Obs.Metrics.set_gauge reg name v in
  gauge "run.plain_cycles" (float_of_int r.plain_cycles);
  gauge "run.base_cycles" (float_of_int r.base.cycles);
  gauge "run.opt_cycles" (float_of_int r.opt.cycles);
  gauge "run.tls_cycles" (float_of_int r.tls_cycles);
  gauge "run.actual_speedup" r.actual_speedup;
  gauge "run.predicted_speedup"
    r.selection.Test_core.Analyzer.predicted_speedup;
  gauge "run.selected_stls"
    (float_of_int (List.length r.selection.Test_core.Analyzer.chosen));
  gauge "run.loop_count" (float_of_int r.loop_count);
  gauge "run.outputs_match" (if r.outputs_match then 1. else 0.);
  (* tracer cache health: how much history the finite timestamp buffers
     lost on this run (high values explain missing distant arcs) *)
  gauge "tracer.heap_fifo_evictions"
    (float_of_int (Test_core.Tracer.heap_fifo_evictions r.tracer));
  gauge "tracer.local_ts_evictions"
    (float_of_int (Test_core.Tracer.local_ts_evictions r.tracer));
  gauge "tracer.ld_dedup_conflicts"
    (float_of_int (Test_core.Tracer.ld_dedup_conflicts r.tracer));
  gauge "tracer.st_dedup_conflicts"
    (float_of_int (Test_core.Tracer.st_dedup_conflicts r.tracer));
  Obs.Metrics.incr reg "run.reports" ~by:1
