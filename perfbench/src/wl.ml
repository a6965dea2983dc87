(* What the three workloads share: the run context, the pass loop, the
   oracle tally, CPU accounting, and the mapping from recorded spans and
   counters to the per-layer metrics. *)

type ctx = {
  seed : int;
  seconds : float;  (** how long the timed pass loop runs *)
  jobs : int;  (** worker processes (= cores) *)
  dir : string;  (** scratch directory inside the checkout *)
}

type result = {
  attempted : int;
  failed : int;
  values : (string * float) list;  (** metric name -> value *)
}

(* ---------------- oracle tally ---------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t what = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error msg ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      Report.line "FAIL %s: %s" what msg

let finish t values = { attempted = t.attempted; failed = t.failed; values }

(* ---------------- timing ---------------- *)

let now = Unix.gettimeofday

(* User + system seconds of this process and its reaped children. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Run [setup] [reps] times and keep the last state; [discard] releases
   the earlier ones. Returns the median set-up seconds and the state. *)
let repeated_setup ~reps ~discard setup =
  let rec go i times last =
    if i = reps then (Report.median times, Option.get last)
    else begin
      Option.iter discard last;
      let t0 = now () in
      let s = setup () in
      go (i + 1) ((now () -. t0) :: times) (Some s)
    end
  in
  go 0 [] None

(* Call [pass k] for k = 0, 1, ... until [seconds] have gone by (at
   least once); returns the results in order. Each pass starts from a
   compacted heap, as a fresh process would, so that garbage from the
   previous pass is neither collected inside the next one nor copied
   into the workers it forks. *)
let pass_loop ~seconds pass =
  let t0 = now () in
  let rec go k acc =
    if k > 0 && now () -. t0 >= seconds then List.rev acc
    else begin
      Gc.compact ();
      go (k + 1) (pass k :: acc)
    end
  in
  go 0 []

let report_setup setup_s = Report.print_metric "setup_s" setup_s "s"

(* ---------------- per-layer metrics ---------------- *)

let prefixed p name = String.starts_with ~prefix:p name

(* Per-layer values derivable from the spans and counters alone, per
   traced pass ([passes] of them were recorded). The workloads add what
   needs their own measurements via [extra], which wins over these and
   is taken as given. Metrics not covered read 0. *)
let layer_values ~passes ~extra =
  let spans = Spans.spans () in
  let self p = Spans.self_s spans (prefixed p) in
  let c = Spans.counter in
  let tls_s = self "Hydra.Tls_sim.run" in
  let pipeline_s = Spans.total_s spans (String.equal "Jrpm.Pipeline.run") in
  let plain_s = self "Hydra.Seq_interp.run/plain" in
  let committed = c "tls_sim.committed" and violations = c "tls_sim.violations" in
  let base =
    [
      ("tls_sim.s", tls_s);
      ("tls_sim.share", Report.ratio tls_s pipeline_s);
      ("tls_sim.sim_cycles", c "tls_sim.sim_cycles");
      ( "tls_sim.host_ns_per_sim_cycle",
        Report.ratio (tls_s *. 1e9) (c "tls_sim.sim_cycles") );
      ("tls_sim.commit_ratio", Report.ratio committed (committed +. violations));
      ("seq_interp.plain_s", plain_s);
      ("seq_interp.instructions", c "seq_interp.instructions");
      ( "seq_interp.minstr_per_s",
        Report.ratio (c "seq_interp.plain_instructions") (plain_s *. 1e6) );
      ("profile.annotated_s", self "Hydra.Seq_interp.run/annotated");
      ("tracer.events", c "tracer.events");
      ("tracer.heap_fifo_evictions", c "tracer.heap_fifo_evictions");
      ("analyzer.s", self "Test_core.Analyzer");
      ( "writer.bytes_per_event",
        Report.ratio (c "writer.record_bytes") (c "writer.events") );
      ( "writer.compression_ratio",
        Report.ratio (c "writer.reference_bytes") (c "writer.record_bytes") );
      ("bytesrc.map_s", self "Trace_store.Bytesrc.map_file");
      ("index.s", self "Trace_store.Index.of_src");
      ( "frontend.s",
        self "Ir.Lower.compile" +. self "Compiler.Opt.program"
        +. self "Compiler.Stl_table.build" );
      ("codegen.s", self "Compiler.Codegen.generate");
      ( "scheduler.idle_fraction",
        if c "scheduler.capacity_s" > 0. then
          Float.max 0.
            (1. -. Report.ratio (c "scheduler.busy_s") (c "scheduler.capacity_s"))
        else 0. );
      ("scheduler.busy_s", c "scheduler.busy_s");
      ("scheduler.max_worker_busy_s", c "scheduler.max_worker_busy_s");
      ("scheduler.frames", c "scheduler.frames");
      ("scheduler.tasks", c "scheduler.tasks");
    ]
  in
  let per_pass = 1. /. float_of_int (max 1 passes) in
  List.map
    (fun { Report.name; unit_ } ->
      ( name,
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> (
            let v = Option.value (List.assoc_opt name base) ~default:0. in
            match unit_ with "s" | "count" -> v *. per_pass | _ -> v) ))
    Report.per_layer

(* Record one scheduler map's utilization as counters. *)
let count_scheduler (s : Jrpm.Scheduler.stats) =
  Spans.count "scheduler.tasks" (float_of_int s.Jrpm.Scheduler.tasks);
  Spans.count "scheduler.frames" (float_of_int s.Jrpm.Scheduler.frames);
  Spans.count "scheduler.busy_s" s.Jrpm.Scheduler.busy_s;
  Spans.count "scheduler.max_worker_busy_s" s.Jrpm.Scheduler.max_worker_busy_s;
  Spans.count "scheduler.capacity_s"
    (float_of_int s.Jrpm.Scheduler.jobs *. s.Jrpm.Scheduler.wall_s)

(* Split the replays made through [Replica.eval_cell] into decode and
   tracer time: decode each record once into a null sink (outside the
   passes), charge that to every cell of the record, and leave the rest
   of the replay spans to the tracer. Per pass, as [layer_values]. *)
let replay_split ~passes ~src entries =
  let per_pass = 1. /. float_of_int (max 1 passes) in
  let decode =
    List.map
      (fun (e : Trace_store.Index.entry) -> (e, Replica.decode_only ~src e))
      entries
  in
  let decode_s =
    per_pass
    *. List.fold_left
         (fun a ((e : Trace_store.Index.entry), d) ->
           a +. (Spans.counter ("cells/" ^ e.Trace_store.Index.name) *. d))
         0. decode
  in
  let replay_s =
    per_pass
    *. Spans.self_s (Spans.spans ())
         (String.equal "Trace_store.Reader.replay+Test_core.Tracer.sink")
  in
  let cal_events, cal_s =
    List.fold_left
      (fun (n, s) ((e : Trace_store.Index.entry), d) ->
        (n +. float_of_int e.Trace_store.Index.events, s +. d))
      (0., 0.) decode
  in
  let tracer_s = replay_s -. decode_s in
  [
    ("tracer.s", tracer_s);
    ( "tracer.mev_per_s",
      Report.ratio (Spans.counter "replay.events" *. per_pass) (tracer_s *. 1e6) );
    ("reader.decode_s", decode_s);
    ("reader.decode_mev_per_s", Report.ratio cal_events (cal_s *. 1e6));
  ]

(* Write the recorded spans next to the run's other scratch files. *)
let dump_spans ctx workload =
  let path =
    Filename.concat ctx.dir (Printf.sprintf "spans-%s-%d.json" workload ctx.seed)
  in
  let oc = open_out_bin path in
  output_string oc (Obs.Json.to_string (Spans.to_json (Spans.spans ())));
  close_out oc;
  Report.line "spans written to %s (%d spans)" path
    (List.length (Spans.spans ()))

(* Traced runs alternate an untraced and a traced pass and compare the
   two wall times; both passes are checked by the same oracles. *)
let overhead_frac ~untraced ~traced =
  Report.ratio (List.fold_left ( +. ) 0. traced) (List.fold_left ( +. ) 0. untraced)
  -. 1.
