(* Stage-by-stage replicas of the library's units of work, with a span
   around every public call, for the traced run. Each replica must give
   the same bytes as the library call it mirrors — the traced run checks
   that — so the per-layer numbers cannot drift from the real code:

   - [pipeline ~capture:true] mirrors [Jrpm.Pipeline.run ~capture] plus
     the record sealing of [Jrpm.Replay.capture_run] (what the sweep
     runs); [~capture:false] mirrors plain [Jrpm.Pipeline.run] (what the
     daemon runs for a profile request);
   - [eval_cell] mirrors [Jrpm.Explore.eval_cell] at a record captured
     on the default machine. *)

let span = Spans.span
let count = Spans.count

type captured = {
  summary : Jrpm.Report_summary.t;
  record : string option;  (** finished trace-store record bytes *)
}

let annotated ~tracer_config ~optimized ~plain_cycles ~wrap_sink ~gen
    ~kind =
  let prog = gen (Compiler.Codegen.Annotated { optimized }) in
  let tracer = Test_core.Tracer.create ~config:tracer_config () in
  let counts = Jrpm.Counting_sink.create_counts () in
  let sink =
    wrap_sink (Jrpm.Counting_sink.wrap counts (Test_core.Tracer.sink tracer))
  in
  let r =
    span ("Hydra.Seq_interp.run/" ^ kind) (fun () ->
        Hydra.Seq_interp.run ~tracing:true ~sink prog)
  in
  count "seq_interp.instructions" (float_of_int r.Hydra.Seq_interp.instructions);
  count "tracer.events"
    (float_of_int (Test_core.Tracer.events_consumed tracer));
  count "tracer.heap_fifo_evictions"
    (float_of_int (Test_core.Tracer.heap_fifo_evictions tracer));
  let cycles = r.Hydra.Seq_interp.cycles in
  let run =
    {
      Jrpm.Pipeline.cycles;
      slowdown = float_of_int cycles /. float_of_int (max 1 plain_cycles);
      locals_cycles = Jrpm.Counting_sink.locals_cycles counts;
      read_stats_cycles = Jrpm.Counting_sink.read_stats_cycles counts;
      loop_anno_cycles = Jrpm.Counting_sink.loop_cycles counts;
    }
  in
  (run, tracer, prog)

let pipeline ~capture ~name src =
  span "Jrpm.Pipeline.run" @@ fun () ->
  let hw = Hydra.Config.default in
  let tracer_config = Test_core.Tracer.config_of hw in
  let tac = span "Ir.Lower.compile" (fun () -> Ir.Lower.compile src) in
  let tac = span "Compiler.Opt.program" (fun () -> Compiler.Opt.program tac) in
  let table =
    span "Compiler.Stl_table.build" (fun () -> Compiler.Stl_table.build tac)
  in
  let gen mode =
    span "Compiler.Codegen.generate" (fun () ->
        Compiler.Codegen.generate ~mode table tac)
  in
  let plain = gen Compiler.Codegen.Plain in
  let pr =
    span "Hydra.Seq_interp.run/plain" (fun () -> Hydra.Seq_interp.run plain)
  in
  count "seq_interp.plain_instructions"
    (float_of_int pr.Hydra.Seq_interp.instructions);
  count "seq_interp.instructions" (float_of_int pr.Hydra.Seq_interp.instructions);
  let plain_cycles = pr.Hydra.Seq_interp.cycles in
  let base, _, _ =
    annotated ~tracer_config ~optimized:false ~plain_cycles ~wrap_sink:Fun.id
      ~gen ~kind:"annotated-base"
  in
  let methods = Test_core.Method_profile.create () in
  let writer = if capture then Some (Trace_store.Writer.create ()) else None in
  let opt, tracer, annotated_program =
    annotated ~tracer_config ~optimized:true ~plain_cycles
      ~wrap_sink:(fun s ->
        let s = Test_core.Method_profile.wrap methods s in
        match writer with
        | Some w -> Hydra.Trace.tee s (Trace_store.Writer.sink w)
        | None -> s)
      ~gen ~kind:"annotated-opt"
  in
  let stats = Test_core.Tracer.stats tracer in
  let estimates =
    span "Test_core.Analyzer.estimate" (fun () ->
        List.map
          (fun (stl, s) -> (stl, Test_core.Analyzer.estimate ~config:hw s))
          stats)
  in
  let selection =
    span "Test_core.Analyzer.select" (fun () ->
        Test_core.Analyzer.select ~config:hw ~stats
          ~child_cycles:(Test_core.Tracer.child_cycles tracer)
          ~program_cycles:opt.Jrpm.Pipeline.cycles ())
  in
  let tls_prog =
    gen
      (Compiler.Codegen.Tls
         {
           selected =
             List.map
               (fun (c : Test_core.Analyzer.choice) -> c.chosen_stl)
               selection.Test_core.Analyzer.chosen;
         })
  in
  let tr =
    span "Hydra.Tls_sim.run" (fun () -> Hydra.Tls_sim.run ~config:hw tls_prog)
  in
  let spec = tr.Hydra.Tls_sim.stats in
  count "tls_sim.sim_cycles" (float_of_int tr.Hydra.Tls_sim.cycles);
  count "tls_sim.committed" (float_of_int spec.Hydra.Tls_sim.threads_committed);
  count "tls_sim.violations" (float_of_int spec.Hydra.Tls_sim.violations);
  let report =
    {
      Jrpm.Pipeline.name;
      hw;
      plain_cycles;
      plain_output = pr.Hydra.Seq_interp.output;
      base;
      opt;
      stats;
      estimates;
      selection;
      tls_cycles = tr.Hydra.Tls_sim.cycles;
      tls_output = tr.Hydra.Tls_sim.output;
      actual_speedup =
        float_of_int plain_cycles /. float_of_int (max 1 tr.Hydra.Tls_sim.cycles);
      outputs_match =
        (try
           List.for_all2 Ir.Value.equal pr.Hydra.Seq_interp.output
             tr.Hydra.Tls_sim.output
         with Invalid_argument _ -> false);
      spec_stats = spec;
      loop_count = Compiler.Stl_table.loop_count table;
      max_static_depth = Compiler.Stl_table.max_static_depth table;
      max_dynamic_depth = Test_core.Tracer.max_dynamic_depth tracer;
      table;
      tac;
      annotated_program;
      tracer;
      method_candidates =
        Test_core.Method_profile.candidates methods ~program:annotated_program
          ~program_cycles:opt.Jrpm.Pipeline.cycles ();
    }
  in
  let record =
    Option.map
      (fun writer ->
        let meta = Jrpm.Replay.meta_of_report ~writer report in
        count "writer.events" (float_of_int (Trace_store.Writer.events writer));
        count "writer.reference_bytes"
          (float_of_int (Trace_store.Writer.reference_bytes writer));
        let record =
          span "Trace_store.Writer.finish" (fun () ->
              Trace_store.Writer.finish ~name ~meta writer)
        in
        count "writer.record_bytes" (float_of_int (String.length record));
        record)
      writer
  in
  { summary = Jrpm.Report_summary.of_report report; record }

(* ---------------- calibration ---------------- *)

type calibration = {
  null_s : float;  (** annotated run into a sink that drops every event *)
  tracer_s : float;  (** ... into the bare tracer *)
  untee_s : float;  (** ... into the pipeline's sink stack, no capture *)
  tee_s : float;  (** ... into the same stack teed to a writer *)
  events : int;
}

(* Time the optimized annotated run of [src] four ways, so that the
   tracer's and the capture tee's self time — which the interpreter
   spends inside its event callbacks, beyond the reach of a span — fall
   out as differences. *)
let calibrate src =
  let hw = Hydra.Config.default in
  let tracer_config = Test_core.Tracer.config_of hw in
  let tac = Compiler.Opt.program (Ir.Lower.compile src) in
  let table = Compiler.Stl_table.build tac in
  let prog =
    Compiler.Codegen.generate
      ~mode:(Compiler.Codegen.Annotated { optimized = true }) table tac
  in
  let timed sink =
    let t0 = Unix.gettimeofday () in
    ignore (Hydra.Seq_interp.run ~tracing:true ~sink prog);
    Unix.gettimeofday () -. t0
  in
  let stack ~capture =
    let tracer = Test_core.Tracer.create ~config:tracer_config () in
    let counts = Jrpm.Counting_sink.create_counts () in
    let s =
      Test_core.Method_profile.wrap
        (Test_core.Method_profile.create ())
        (Jrpm.Counting_sink.wrap counts (Test_core.Tracer.sink tracer))
    in
    if capture then
      Hydra.Trace.tee s (Trace_store.Writer.sink (Trace_store.Writer.create ()))
    else s
  in
  let null_s = timed Hydra.Trace.null_sink in
  let tracer = Test_core.Tracer.create ~config:tracer_config () in
  let tracer_s = timed (Test_core.Tracer.sink tracer) in
  let untee_s = timed (stack ~capture:false) in
  let tee_s = timed (stack ~capture:true) in
  {
    null_s;
    tracer_s;
    untee_s;
    tee_s;
    events = Test_core.Tracer.events_consumed tracer;
  }

(* ---------------- explore cell ---------------- *)

let member key json =
  match Obs.Json.member key json with
  | Some v -> v
  | None -> failwith ("record metadata is missing " ^ key)

let eval_cell ~src hw (entry : Trace_store.Index.entry) =
  let reader = Trace_store.Reader.of_src src in
  let record =
    span "Trace_store.Reader.seek_record" (fun () ->
        Trace_store.Reader.seek_record reader
          ~offset:entry.Trace_store.Index.offset)
  in
  let meta = record.Trace_store.Reader.meta in
  let recorded = Jrpm.Report_summary.of_json (member "summary" meta) in
  let recorded_hw = Hydra.Config.of_json (member "hw_config" meta) in
  let cpus = Obs.Json.to_int (member "cpus" meta) in
  (* a pipeline capture's tracer geometry is derived from its machine *)
  let recorded_config = Test_core.Tracer.config_of recorded_hw in
  let config =
    if Hydra.Config.equal hw recorded_hw then recorded_config
    else Test_core.Tracer.config_of ~base:recorded_config hw
  in
  let tracer = Test_core.Tracer.create ~config () in
  let stats =
    span "Trace_store.Reader.replay+Test_core.Tracer.sink" (fun () ->
        Trace_store.Reader.replay reader (Test_core.Tracer.sink tracer))
  in
  count "tracer.events" (float_of_int stats.Trace_store.Reader.events);
  count "replay.events" (float_of_int stats.Trace_store.Reader.events);
  count "tracer.heap_fifo_evictions"
    (float_of_int (Test_core.Tracer.heap_fifo_evictions tracer));
  count ("cells/" ^ record.Trace_store.Reader.name) 1.;
  let selection =
    span "Test_core.Analyzer.select" (fun () ->
        Test_core.Analyzer.select ~config:hw ?cpus
          ~stats:(Test_core.Tracer.stats tracer)
          ~child_cycles:(Test_core.Tracer.child_cycles tracer)
          ~program_cycles:
            recorded.Jrpm.Report_summary.opt.Jrpm.Report_summary.cycles ())
  in
  {
    Jrpm.Explore.workload = record.Trace_store.Reader.name;
    summary =
      {
        recorded with
        Jrpm.Report_summary.config_fingerprint = Hydra.Config.fingerprint hw;
        predicted_speedup = selection.Test_core.Analyzer.predicted_speedup;
        selected_stls = List.length selection.Test_core.Analyzer.chosen;
        max_dynamic_depth = Test_core.Tracer.max_dynamic_depth tracer;
      };
    chosen_stls =
      List.sort compare
        (List.map
           (fun (c : Test_core.Analyzer.choice) -> c.chosen_stl)
           selection.Test_core.Analyzer.chosen);
  }

(* Decode-only seconds for one record: the reader into a sink that
   drops every event. *)
let decode_only ~src (entry : Trace_store.Index.entry) =
  let reader = Trace_store.Reader.of_src src in
  ignore
    (Trace_store.Reader.seek_record reader
       ~offset:entry.Trace_store.Index.offset);
  let t0 = Unix.gettimeofday () in
  ignore (Trace_store.Reader.replay reader Hydra.Trace.null_sink);
  Unix.gettimeofday () -. t0
