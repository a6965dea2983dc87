(* Workload [sweep]: the full Jrpm cycle over every registry program in a
   seeded order — [Jrpm.Parallel_sweep.run ~capture:true] at jobs =
   cores, container written with [Trace_store.Writer.to_file] — which is
   what [jrpm sweep --trace] runs. Most of the time goes to the TLS
   simulator; the trace-store writer runs, the reader and the daemon do
   not. *)

type state = {
  baseline : Oracle.baseline;
  sources : (string * string) list;  (** program name -> Javelin source *)
}

(* The two cheapest programs, run once in-process before timing so that
   the process's code and heap are warm. *)
let warmup = [ "FourierTest"; "monteCarlo" ]

(* Load the baseline, generate every program's source and check that it
   parses and lowers (so no pass can fail on its input), and warm up. *)
let setup () =
  let baseline = Oracle.load_baseline () in
  let sources =
    List.map
      (fun (w : Workloads.Workload.t) ->
        (w.Workloads.Workload.name, Workloads.Registry.default_source w))
      Workloads.Registry.all
  in
  List.iter (fun (_, src) -> ignore (Ir.Lower.compile src)) sources;
  List.iter
    (fun (o : Jrpm.Parallel_sweep.outcome) ->
      match Oracle.check_summary baseline o.summary with
      | Ok () -> ()
      | Error msg -> failwith ("warm-up: " ^ msg))
    (Jrpm.Parallel_sweep.run ~jobs:1 ~capture:true
       ~workloads:(List.map Workloads.Registry.find_exn warmup)
       ());
  { baseline; sources }

let archive (ctx : Wl.ctx) = Filename.concat ctx.Wl.dir "sweep.jtrc"

(* The summaries must match the baseline, and the container on disk must
   hold one record per program, in sweep order. *)
let check_pass (ctx : Wl.ctx) st tally order summaries =
  List.iter
    (fun s ->
      Wl.check tally
        ("sweep " ^ s.Jrpm.Report_summary.name)
        (Oracle.check_summary st.baseline s))
    summaries;
  let names =
    List.map
      (fun (e : Trace_store.Index.entry) -> e.Trace_store.Index.name)
      (Trace_store.Index.of_file (archive ctx))
  in
  Wl.check tally "sweep container"
    (if names = order then Ok () else Error "container records out of order")

type pass = { wall : float; cpu : float }

(* Returns the pass's timings and its captured records. *)
let untraced_pass (ctx : Wl.ctx) st tally k =
  let order = Gen.sweep_order ~seed:ctx.Wl.seed ~pass:k in
  let workloads = List.map Workloads.Registry.find_exn order in
  let t0 = Wl.now () and c0 = Wl.cpu_now () in
  let outcomes =
    Jrpm.Parallel_sweep.run ~jobs:ctx.Wl.jobs ~capture:true ~workloads ()
  in
  let records =
    List.filter_map (fun (o : Jrpm.Parallel_sweep.outcome) -> o.trace) outcomes
  in
  Trace_store.Writer.to_file ~path:(archive ctx) records;
  let wall = Wl.now () -. t0 and cpu = Wl.cpu_now () -. c0 in
  check_pass ctx st tally order
    (List.map (fun (o : Jrpm.Parallel_sweep.outcome) -> o.summary) outcomes);
  ({ wall; cpu }, records)

let run ctx =
  let setup_s, st = Wl.repeated_setup ~reps:5 ~discard:ignore setup in
  let tally = Wl.tally () in
  let passes =
    Wl.pass_loop ~seconds:ctx.Wl.seconds (fun k ->
        fst (untraced_pass ctx st tally k))
  in
  let programs = List.length passes * List.length st.sources in
  let elapsed = List.fold_left (fun a p -> a +. p.wall) 0. passes in
  Report.line "passes %d, programs %d, elapsed %.3f s" (List.length passes)
    programs elapsed;
  Report.print_metric "programs_per_s" (float_of_int programs /. elapsed) "1/s";
  Report.print_metric "failed_frac"
    (Report.ratio (float_of_int tally.failed) (float_of_int tally.attempted))
    "ratio";
  Wl.finish tally
    [
      ("setup_s", setup_s);
      ("wall_s", Report.median (List.map (fun p -> p.wall) passes));
      ("throughput_per_s", float_of_int programs /. elapsed);
      ("cpu_s", Report.median (List.map (fun p -> p.cpu) passes));
    ]

(* ---------------- traced ---------------- *)

let traced_pass (ctx : Wl.ctx) st tally k ~untraced =
  let order = Gen.sweep_order ~seed:ctx.Wl.seed ~pass:k in
  let t0 = Wl.now () in
  let results =
    Spans.span "pass" @@ fun () ->
    let results, stats, map_id =
      Spans.span "Jrpm.Scheduler.map_stats" (fun () ->
          let id = Spans.current () in
          let results, stats =
            Jrpm.Scheduler.map_stats ~jobs:ctx.Wl.jobs
              ~label:(fun _ name -> "workload " ^ name)
              (fun _ name ->
                Spans.in_worker (fun () ->
                    Replica.pipeline ~capture:true ~name (List.assoc name st.sources)))
              order
          in
          (results, stats, id))
    in
    List.iter (fun (_, shipped) -> Spans.adopt ~parent:map_id shipped) results;
    Wl.count_scheduler stats;
    let captured = List.map fst results in
    Spans.span "Trace_store.Writer.to_file" (fun () ->
        Trace_store.Writer.to_file ~path:(archive ctx)
          (List.filter_map (fun (c : Replica.captured) -> c.record) captured));
    captured
  in
  let wall = Wl.now () -. t0 in
  check_pass ctx st tally order
    (List.map (fun (c : Replica.captured) -> c.summary) results);
  Wl.check tally "replica records"
    (if List.filter_map (fun (c : Replica.captured) -> c.record) results = untraced
     then Ok ()
     else Error "replica capture differs from Parallel_sweep's records");
  wall

let run_traced ctx =
  let setup_s, st = Wl.repeated_setup ~reps:1 ~discard:ignore setup in
  Wl.report_setup setup_s;
  let tally = Wl.tally () in
  Spans.reset ~enabled:false;
  let pairs =
    Wl.pass_loop ~seconds:ctx.Wl.seconds (fun k ->
        let u, records = untraced_pass ctx st tally k in
        Gc.compact ();
        Spans.set_enabled true;
        let t = traced_pass ctx st tally k ~untraced:records in
        Spans.set_enabled false;
        (u.wall, t))
  in
  (* calibration runs outside the traced passes, once per program *)
  let cal =
    Jrpm.Scheduler.map ~jobs:ctx.Wl.jobs
      (fun _ (_, src) -> Replica.calibrate src)
      st.sources
  in
  let sum f = List.fold_left (fun a (c : Replica.calibration) -> a +. f c) 0. cal in
  let tracer_s = sum (fun c -> c.tracer_s -. c.null_s) in
  let events = sum (fun c -> float_of_int c.events) in
  let capture_s = sum (fun c -> c.tee_s -. c.untee_s) in
  let passes = List.length pairs in
  let finish_s =
    Spans.self_s (Spans.spans ()) (String.equal "Trace_store.Writer.finish")
    /. float_of_int passes
  in
  Report.line "calibration: tracer %.3f s for %.0f events, capture tee %.3f s"
    tracer_s events capture_s;
  (* the stated prediction: TLS simulation is the largest share of
     pipeline time on this workload *)
  let spans = Spans.spans () in
  let pipeline_s = Spans.total_s spans (String.equal "Jrpm.Pipeline.run") in
  let shares =
    List.map
      (fun (layer, prefixes) ->
        ( layer,
          Report.ratio
            (List.fold_left
               (fun a p -> a +. Spans.self_s spans (Wl.prefixed p))
               0. prefixes)
            pipeline_s ))
      [
        ("frontend", [ "Ir."; "Compiler.Opt"; "Compiler.Stl_table" ]);
        ("codegen", [ "Compiler.Codegen" ]);
        ("seq_interp.plain", [ "Hydra.Seq_interp.run/plain" ]);
        ("profile.annotated", [ "Hydra.Seq_interp.run/annotated" ]);
        ("analyzer", [ "Test_core.Analyzer" ]);
        ("writer.finish", [ "Trace_store.Writer.finish" ]);
        ("tls_sim", [ "Hydra.Tls_sim.run" ]);
      ]
  in
  List.iter (fun (l, sh) -> Report.line "share %-18s %6.3f" l sh) shares;
  let top = List.fold_left (fun a (l, sh) -> if sh > snd a then (l, sh) else a) ("", 0.) shares in
  Report.line "prediction: tls_sim has the largest share: %s"
    (if fst top = "tls_sim" then "holds" else "fails (" ^ fst top ^ ")");
  Wl.dump_spans ctx "sweep";
  Wl.finish tally
    (Wl.layer_values ~passes
       ~extra:
         [
           ("tracer.s", tracer_s);
           ("tracer.mev_per_s", Report.ratio events (tracer_s *. 1e6));
           ("writer.capture_s", capture_s +. finish_s);
           ( "trace.overhead_frac",
             Wl.overhead_frac ~untraced:(List.map fst pairs)
               ~traced:(List.map snd pairs) );
         ])
