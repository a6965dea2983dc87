(* The benchmark's one command:

     perfbench --workload sweep|explore|serve --seed N --seconds S --trace 0|1

   run from the root of a checkout. With --trace 0 it runs the workload
   untraced and reports the end-to-end metrics; with --trace 1 it
   alternates untraced and traced passes and reports the per-layer
   metrics. Either way every output is checked, and the last line of
   stdout is the JSON result. Exits 1 when a check fails, 2 on bad
   usage. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: perfbench --workload sweep|explore|serve --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "--workload" and seed = int "--seed" in
  let seconds = int "--seconds" and trace = int "--trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  if not (Sys.file_exists Oracle.baseline_path) then begin
    prerr_endline
      ("perfbench: " ^ Oracle.baseline_path
     ^ " not found; run from the root of a checkout");
    exit 2
  end;
  (* a write to a daemon that died must raise, not kill the benchmark *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let ctx =
    {
      Wl.seed;
      seconds = float_of_int seconds;
      jobs = Jrpm.Scheduler.core_count ();
      dir;
    }
  in
  let run, run_traced =
    match workload with
    | "sweep" -> (W_sweep.run, W_sweep.run_traced)
    | "explore" -> (W_explore.run, W_explore.run_traced)
    | "serve" -> (W_serve.run, W_serve.run_traced)
    | _ -> usage ()
  in
  Report.line "perfbench %s seed=%d seconds=%d trace=%d jobs=%d" workload seed
    seconds trace ctx.Wl.jobs;
  let result =
    try if trace = 1 then run_traced ctx else run ctx
    with e ->
      W_serve.kill_live ();
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
  in
  List.iter
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.file_exists p then Sys.remove p)
    [ "sweep.jtrc"; "explore.jtrc"; "serve.jtrc" ];
  (* peak_rss_mb is added by run.py, which reaps this process *)
  let metrics =
    if trace = 1 then Report.per_layer
    else List.filter (fun m -> m.Report.name <> "peak_rss_mb") Report.end_to_end
  in
  List.iter
    (fun { Report.name; unit_ } ->
      Report.print_metric name (List.assoc name result.Wl.values) unit_)
    metrics;
  let correct = result.Wl.failed = 0 && result.Wl.attempted > 0 in
  Report.line "checks %d attempted, %d failed" result.Wl.attempted
    result.Wl.failed;
  print_endline
    (Obs.Json.to_string
       (Report.result_json ~correct ~attempted:result.Wl.attempted
          ~failed:result.Wl.failed metrics result.Wl.values));
  exit (if correct then 0 else 1)
