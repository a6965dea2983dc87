type outcome = {
  workload : Workloads.Workload.t;
  report : Pipeline.report;
  summary : Report_summary.t;
  recorder : Obs.Recorder.t option;
  trace : string option;
}

let run_one ~observe ~capture (w : Workloads.Workload.t) =
  let recorder = if observe then Some (Obs.Recorder.create ()) else None in
  let obs =
    match recorder with
    | Some rc -> Obs.Recorder.sink rc
    | None -> Obs.Sink.null
  in
  let name = w.Workloads.Workload.name in
  let src = Workloads.Registry.default_source w in
  let report, trace =
    if capture then
      let report, record = Replay.capture_run ~obs ~name src in
      (report, Some record)
    else (Pipeline.run ~obs ~name src, None)
  in
  (match recorder with
  | Some rc -> Pipeline.record_report_metrics (Obs.Recorder.metrics rc) report
  | None -> ());
  (report, recorder, trace)

(* One task per workload on the work-stealing pool. The task's
   [(report, recorder, trace)] result crosses back as one Marshal frame;
   [Scheduler.map] slots it by index, so the list is in registry order
   whatever the completion order was. *)
let run ?jobs ?(observe = false) ?(capture = false)
    ?(workloads = Workloads.Registry.all) () =
  let jobs = match jobs with Some n -> n | None -> Scheduler.default_jobs () in
  List.map2
    (fun workload (report, recorder, trace) ->
      {
        workload;
        report;
        summary = Report_summary.of_report report;
        recorder;
        trace;
      })
    workloads
    (Scheduler.map ~jobs
       ~label:(fun _ w -> "workload " ^ w.Workloads.Workload.name)
       (fun _ w -> run_one ~observe ~capture w)
       workloads)

let container outcomes =
  let records = List.filter_map (fun o -> o.trace) outcomes in
  if records = [] then None else Some (Trace_store.Writer.container records)

let merged_recorder outcomes =
  let merged = Obs.Recorder.create () in
  let any = ref false in
  List.iter
    (fun o ->
      match o.recorder with
      | Some rc ->
          any := true;
          Obs.Recorder.merge merged rc
      | None -> ())
    outcomes;
  if !any then Some merged else None
