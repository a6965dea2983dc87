(* Workload [explore]: a seeded 3 x 3 config grid plus the default column
   ([Jrpm.Explore.run] at jobs = cores) over an archive captured during
   set-up. All the work is trace-store reads, the tracer, the analyzer
   and the adaptive scheduler; the TLS simulator and the interpreter do
   none, so a TLS-simulator gain must leave this workload unchanged. *)

type state = {
  baseline : Oracle.baseline;
  grid : string list;
  src : Trace_store.Bytesrc.t;
  entries : Trace_store.Index.entry list;
}

let archive (ctx : Wl.ctx) = Filename.concat ctx.Wl.dir "explore.jtrc"

(* Capture the archive (checking the capture run against the baseline),
   map and index it, and check that every record replays to its
   recorded summary. *)
let setup (ctx : Wl.ctx) tally () =
  let baseline = Oracle.load_baseline () in
  let outcomes =
    Jrpm.Parallel_sweep.run ~jobs:ctx.Wl.jobs ~capture:true
      ~workloads:(List.map Workloads.Registry.find_exn Gen.explore_records)
      ()
  in
  List.iter
    (fun (o : Jrpm.Parallel_sweep.outcome) ->
      Wl.check tally "explore capture" (Oracle.check_summary baseline o.summary))
    outcomes;
  Trace_store.Writer.to_file ~path:(archive ctx)
    (List.filter_map (fun (o : Jrpm.Parallel_sweep.outcome) -> o.trace) outcomes);
  let src = Trace_store.Bytesrc.map_file (archive ctx) in
  let entries = Trace_store.Index.of_src src in
  List.iter
    (fun (o : Jrpm.Replay.outcome) ->
      Wl.check tally ("replay " ^ o.Jrpm.Replay.name)
        (if o.Jrpm.Replay.matches then Ok ()
         else Error "replayed summary differs from the recorded one"))
    (Jrpm.Replay.replay_entries ~jobs:ctx.Wl.jobs ~src entries);
  { baseline; grid = Gen.explore_grid ~seed:ctx.Wl.seed; src; entries }

(* The default column must be byte-equal to the baseline, and every pass
   must render the same matrix as the first. *)
let check_pass st tally ~first (t : Jrpm.Explore.t) =
  List.iter
    (fun s ->
      Wl.check tally
        ("explore default " ^ s.Jrpm.Report_summary.name)
        (Oracle.check_summary st.baseline s))
    (Jrpm.Explore.default_summaries t);
  let json = Obs.Json.to_string (Jrpm.Explore.to_json t) in
  (match !first with
  | None -> first := Some json
  | Some j ->
      Wl.check tally "explore matrix"
        (if j = json then Ok () else Error "matrix differs between passes"));
  List.fold_left
    (fun n (p : Jrpm.Explore.point_result) -> n + List.length p.cells)
    0 t.points

type pass = { wall : float; cpu : float; cells : int }

let untraced_pass (ctx : Wl.ctx) st tally ~first _ =
  let t0 = Wl.now () and c0 = Wl.cpu_now () in
  let t = Jrpm.Explore.run ~jobs:ctx.Wl.jobs ~grid:st.grid ~path:(archive ctx) () in
  let wall = Wl.now () -. t0 and cpu = Wl.cpu_now () -. c0 in
  { wall; cpu; cells = check_pass st tally ~first t }

let run ctx =
  let tally = Wl.tally () in
  let setup_s, st =
    Wl.repeated_setup ~reps:3 ~discard:ignore (setup ctx tally)
  in
  Report.line "grid %s" (String.concat " " st.grid);
  let first = ref None in
  let passes =
    Wl.pass_loop ~seconds:ctx.Wl.seconds (untraced_pass ctx st tally ~first)
  in
  let cells = List.fold_left (fun a p -> a + p.cells) 0 passes in
  let elapsed = List.fold_left (fun a p -> a +. p.wall) 0. passes in
  Report.line "passes %d, cells %d, elapsed %.3f s" (List.length passes) cells
    elapsed;
  Report.print_metric "cells_per_s" (float_of_int cells /. elapsed) "1/s";
  Report.print_metric "failed_frac"
    (Report.ratio (float_of_int tally.failed) (float_of_int tally.attempted))
    "ratio";
  Wl.finish tally
    [
      ("setup_s", setup_s);
      ("wall_s", Report.median (List.map (fun p -> p.wall) passes));
      ("throughput_per_s", float_of_int cells /. elapsed);
      ("cpu_s", Report.median (List.map (fun p -> p.cpu) passes));
    ]

(* ---------------- traced ---------------- *)

(* [Jrpm.Explore.run] step by step, with the cell replica in place of
   [Jrpm.Explore.eval_cell]. *)
let traced_pass (ctx : Wl.ctx) st =
  let path = archive ctx in
  Spans.span "pass" @@ fun () ->
  let configs =
    Jrpm.Explore.configs_of_grid (Jrpm.Explore.parse_grid st.grid)
  in
  let src =
    Spans.span "Trace_store.Bytesrc.map_file" (fun () ->
        Trace_store.Bytesrc.map_file path)
  in
  let entries =
    Spans.span "Trace_store.Index.of_src" (fun () -> Trace_store.Index.of_src src)
  in
  let cells, stats, map_id =
    Spans.span "Jrpm.Scheduler.map_adaptive_stats" (fun () ->
        let id = Spans.current () in
        let cells, stats =
          Jrpm.Scheduler.map_adaptive_stats ~jobs:ctx.Wl.jobs
            ~weights:(fun _ ((_, e) : _ * Trace_store.Index.entry) ->
              float_of_int e.Trace_store.Index.events)
            (fun _ (config, entry) ->
              Spans.in_worker (fun () ->
                  Spans.span "Jrpm.Explore.eval_cell" (fun () ->
                      Replica.eval_cell ~src config entry)))
            (Jrpm.Explore.cell_tasks configs entries)
        in
        (cells, stats, id))
  in
  List.iter (fun (_, shipped) -> Spans.adopt ~parent:map_id shipped) cells;
  Wl.count_scheduler stats;
  Spans.span "Jrpm.Explore.assemble" (fun () ->
      Jrpm.Explore.assemble ~archive:path ~configs
        ~records:(List.length entries) (List.map fst cells))

let run_traced ctx =
  let tally = Wl.tally () in
  let setup_s, st = Wl.repeated_setup ~reps:1 ~discard:ignore (setup ctx tally) in
  Wl.report_setup setup_s;
  Spans.reset ~enabled:false;
  let first = ref None in
  let pairs =
    Wl.pass_loop ~seconds:ctx.Wl.seconds (fun k ->
        let u = untraced_pass ctx st tally ~first k in
        Gc.compact ();
        Spans.set_enabled true;
        let t0 = Wl.now () in
        let t = traced_pass ctx st in
        let wall = Wl.now () -. t0 in
        Spans.set_enabled false;
        ignore (check_pass st tally ~first t);
        (u.wall, wall))
  in
  let passes = List.length pairs in
  Report.line "prediction: no TLS simulation on explore: %s"
    (if Spans.total_s (Spans.spans ()) (Wl.prefixed "Hydra.") = 0. then "holds"
     else "fails");
  Wl.dump_spans ctx "explore";
  Wl.finish tally
    (Wl.layer_values ~passes
       ~extra:
         (( "trace.overhead_frac",
            Wl.overhead_frac ~untraced:(List.map fst pairs)
              ~traced:(List.map snd pairs) )
         :: Wl.replay_split ~passes ~src:st.src st.entries))
