(* Workload [serve]: a closed loop against [Jrpm.Daemon.serve] over a
   Unix socket, pool jobs = cores, from this one client process with at
   most [jobs] requests outstanding — [jrpm client] callers each wait for
   their reply, so the loop is closed. The seeded mix is mostly
   single-record replays (small, served from the mapping cache), a
   minority of full-pipeline profiles and a rare narrow explore, all on
   one pool: replays queued behind profiles show in the replay tail. *)

type daemon = { pid : int; conn : Jrpm.Daemon.Client.t }

type state = {
  expected : (string, Oracle.expected) Hashtbl.t;  (** by [Gen.describe] *)
  daemon : daemon;
}

let archive (ctx : Wl.ctx) = Filename.concat ctx.Wl.dir "serve.jtrc"

let socket (ctx : Wl.ctx) =
  Filename.concat ctx.Wl.dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

(* Daemons still running, so that an escaping exception can stop them. *)
let live = ref []

let to_request ctx = function
  | Gen.Replay r -> Jrpm.Daemon.Replay { path = archive ctx; record = Some r }
  | Gen.Profile p -> Jrpm.Daemon.Profile p
  | Gen.Explore grid -> Jrpm.Daemon.Explore { path = archive ctx; grid }

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

let start_daemon ctx =
  let sock = socket ctx in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      (try Jrpm.Daemon.serve ~jobs:ctx.Wl.jobs (Jrpm.Daemon.Socket sock)
       with _ -> ());
      Unix._exit 0
  | pid ->
      live := pid :: !live;
      let deadline = Wl.now () +. 30. in
      let rec connect () =
        match Jrpm.Daemon.Client.connect sock with
        | conn -> conn
        | exception Failure msg ->
            if Wl.now () > deadline then failwith msg;
            Unix.sleepf 0.005;
            connect ()
      in
      { pid; conn = connect () }

let stop_daemon d =
  ignore (Jrpm.Daemon.Client.rpc d.conn Jrpm.Daemon.Shutdown);
  Jrpm.Daemon.Client.close d.conn;
  reap d.pid;
  live := List.filter (( <> ) d.pid) !live

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try reap pid with Unix.Unix_error _ -> ())
    !live;
  live := []

(* ---------------- the closed loop ---------------- *)

type sample = {
  kind : string;
  latency : float;  (** client-side, send to receive *)
  server : float;  (** the response's elapsed_s *)
  queue_depth : int;
  tasks : int;
  done_at : float;
}

(* Keep [window] requests outstanding, drawing them deck after deck from
   the seeded mix, until [seconds] have gone by; then drain. Every
   response is checked against the one-shot result. *)
let closed_loop (ctx : Wl.ctx) st tally ~seconds ~traced =
  let conn = st.daemon.conn in
  let inflight = Hashtbl.create 16 in
  let queue = ref [] and deck = ref 0 in
  let rec next () =
    match !queue with
    | r :: rest ->
        queue := rest;
        r
    | [] ->
        queue := Gen.serve_deck ~seed:ctx.Wl.seed ~deck:!deck;
        incr deck;
        next ()
  in
  let send () =
    let req = next () in
    let id = Jrpm.Daemon.Client.send conn (to_request ctx req) in
    Hashtbl.replace inflight id (req, Wl.now ())
  in
  let t0 = Wl.now () in
  for _ = 1 to ctx.Wl.jobs do
    send ()
  done;
  let samples = ref [] in
  while Hashtbl.length inflight > 0 do
    let r = Jrpm.Daemon.Client.recv conn in
    let t = Wl.now () in
    match Hashtbl.find_opt inflight r.Jrpm.Daemon.rsp_id with
    | None -> Wl.check tally "serve" (Error "response to an unknown id")
    | Some (req, sent) ->
        Hashtbl.remove inflight r.Jrpm.Daemon.rsp_id;
        let what = Gen.describe req in
        Wl.check tally what
          (Oracle.check_response (Hashtbl.find st.expected what) r);
        let kind = Gen.request_kind req in
        if traced then
          Spans.add ~name:("Jrpm.Daemon.Client.rpc/" ^ kind) ~start:sent ~stop:t;
        samples :=
          {
            kind;
            latency = t -. sent;
            server = r.Jrpm.Daemon.elapsed_s;
            queue_depth = r.Jrpm.Daemon.queue_depth;
            tasks = r.Jrpm.Daemon.tasks;
            done_at = t;
          }
          :: !samples;
        if t -. t0 < seconds then send ()
  done;
  (t0, List.rev !samples)

(* ---------------- set-up ---------------- *)

let setup (ctx : Wl.ctx) tally () =
  let baseline = Oracle.load_baseline () in
  let outcomes =
    Jrpm.Parallel_sweep.run ~jobs:ctx.Wl.jobs ~capture:true
      ~workloads:(List.map Workloads.Registry.find_exn Gen.serve_records)
      ()
  in
  let path = archive ctx in
  Trace_store.Writer.to_file ~path
    (List.filter_map (fun (o : Jrpm.Parallel_sweep.outcome) -> o.trace) outcomes);
  let expected = Hashtbl.create 32 in
  List.iter
    (fun (o : Jrpm.Parallel_sweep.outcome) ->
      Wl.check tally "serve capture" (Oracle.check_summary baseline o.summary);
      Hashtbl.replace expected
        (Gen.describe (Gen.Profile o.summary.Jrpm.Report_summary.name))
        (Oracle.expect_profile o.summary))
    outcomes;
  List.iter
    (fun (o : Jrpm.Replay.outcome) ->
      Wl.check tally ("replay " ^ o.Jrpm.Replay.name)
        (if o.Jrpm.Replay.matches then Ok ()
         else Error "replayed summary differs from the recorded one");
      Hashtbl.replace expected
        (Gen.describe (Gen.Replay o.Jrpm.Replay.name))
        (Oracle.expect_replay [ o ]))
    (Jrpm.Replay.replay_file ~jobs:1 path);
  List.iter
    (fun grid ->
      Hashtbl.replace expected
        (Gen.describe (Gen.Explore grid))
        (Oracle.expect_explore (Jrpm.Explore.run ~jobs:ctx.Wl.jobs ~grid ~path ())))
    (Gen.serve_grids ~seed:ctx.Wl.seed);
  let st = { expected; daemon = start_daemon ctx } in
  (* warm the daemon's and its workers' mapping caches: two replays of
     every record, all outstanding at once so both workers take some *)
  let warm = List.concat_map (fun r -> [ Gen.Replay r; Gen.Replay r ]) Gen.serve_records in
  let ids =
    List.map
      (fun req -> (Jrpm.Daemon.Client.send st.daemon.conn (to_request ctx req), req))
      warm
  in
  List.iter
    (fun _ ->
      let r = Jrpm.Daemon.Client.recv st.daemon.conn in
      let what = Gen.describe (List.assoc r.Jrpm.Daemon.rsp_id ids) in
      Wl.check tally what (Oracle.check_response (Hashtbl.find expected what) r))
    ids;
  st

(* ---------------- measurement ---------------- *)

let stats st =
  match
    (Jrpm.Daemon.Client.rpc st.daemon.conn Jrpm.Daemon.Stats).Jrpm.Daemon.rsp
  with
  | Ok json -> json
  | Error msg -> failwith ("daemon stats: " ^ msg)

let int_at path json =
  let rec go json = function
    | [] -> Option.value (Obs.Json.to_int json) ~default:0
    | k :: rest -> (
        match Obs.Json.member k json with Some j -> go j rest | None -> 0)
  in
  go json path

(* User + system seconds of a live process, from /proc (clock ticks of
   1/100 s). *)
let proc_cpu pid =
  match
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  with
  | s -> (
      (* fields after the parenthesised command name, from field 3 on *)
      let after = String.rindex s ')' + 2 in
      let fields =
        Array.of_list
          (String.split_on_char ' ' (String.sub s after (String.length s - after)))
      in
      try (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.
      with Invalid_argument _ | Failure _ -> 0.)
  | exception Sys_error _ -> 0.

(* CPU seconds of this client, the daemon, and the daemon's workers. *)
let tree_cpu st =
  let workers =
    match Option.bind (Obs.Json.member "workers" (stats st)) Obs.Json.to_list with
    | Some ws -> List.map (int_at [ "pid" ]) ws
    | None -> []
  in
  Wl.cpu_now ()
  +. List.fold_left (fun a pid -> a +. proc_cpu pid) 0. (st.daemon.pid :: workers)

let print_latency kind samples =
  let xs =
    List.filter_map
      (fun s -> if s.kind = kind then Some (s.latency *. 1000.) else None)
      samples
  in
  let value, pct, n = Report.tail xs in
  Report.print_metric (kind ^ "_p50_ms") (Report.median xs) "ms";
  Report.print_metric (kind ^ "_tail_ms") value "ms";
  Report.line "  %s tail is p%.1f of %d samples" kind pct n

(* Wall time of each consecutive block of 100 completions. *)
let block_walls t0 samples =
  let done_at = Array.of_list (List.sort compare (List.map (fun s -> s.done_at) samples)) in
  List.init (Array.length done_at / 100) (fun i ->
      done_at.((100 * (i + 1)) - 1) -. if i = 0 then t0 else done_at.((100 * i) - 1))

let run ctx =
  let tally = Wl.tally () in
  let setup_s, st =
    Wl.repeated_setup ~reps:3
      ~discard:(fun st -> stop_daemon st.daemon)
      (setup ctx tally)
  in
  let cpu0 = tree_cpu st in
  let t0, samples =
    closed_loop ctx st tally ~seconds:ctx.Wl.seconds
      ~traced:false
  in
  let cpu = tree_cpu st -. cpu0 in
  stop_daemon st.daemon;
  let n = List.length samples in
  let elapsed =
    List.fold_left (fun a s -> Float.max a s.done_at) t0 samples -. t0
  in
  Report.line "requests %d, elapsed %.3f s" n elapsed;
  Report.print_metric "requests_per_s" (float_of_int n /. elapsed) "1/s";
  print_latency "replay" samples;
  print_latency "profile" samples;
  print_latency "explore" samples;
  Report.print_metric "failed_frac"
    (Report.ratio (float_of_int tally.failed) (float_of_int tally.attempted))
    "ratio";
  let walls = block_walls t0 samples in
  Wl.finish tally
    [
      ("setup_s", setup_s);
      ("wall_s", if walls = [] then elapsed else Report.median walls);
      ("throughput_per_s", float_of_int n /. elapsed);
      ("cpu_s", cpu *. 100. /. float_of_int (max 1 n));
    ]

(* ---------------- traced ---------------- *)

(* One deck of the mix run in-process through the replicas, with spans:
   the layers the daemon's workers run for these requests, which the
   client cannot see into. Each result must equal the one-shot result.
   Returns the archive mapping and index the replays used. *)
let anatomy (ctx : Wl.ctx) st tally =
  let path = archive ctx in
  let src =
    Spans.span "Trace_store.Bytesrc.map_file" (fun () ->
        Trace_store.Bytesrc.map_file path)
  in
  let entries =
    Spans.span "Trace_store.Index.of_src" (fun () -> Trace_store.Index.of_src src)
  in
  let entry name =
    List.find
      (fun (e : Trace_store.Index.entry) -> e.Trace_store.Index.name = name)
      entries
  in
  let summary s = Jrpm.Report_summary.to_json s in
  Spans.span "deck" (fun () ->
      List.iter
        (fun req ->
          let local =
            match req with
            | Gen.Profile p ->
                summary
                  (Replica.pipeline ~capture:false ~name:p
                     (Workloads.Registry.default_source
                        (Workloads.Registry.find_exn p)))
                    .Replica.summary
            | Gen.Replay r ->
                Obs.Json.List
                  [
                    summary
                      (Replica.eval_cell ~src Hydra.Config.default (entry r))
                        .Jrpm.Explore.summary;
                  ]
            | Gen.Explore grid ->
                let configs =
                  Jrpm.Explore.configs_of_grid (Jrpm.Explore.parse_grid grid)
                in
                Jrpm.Explore.to_json
                  (Jrpm.Explore.assemble ~archive:path ~configs
                     ~records:(List.length entries)
                     (List.map
                        (fun (c, e) -> Replica.eval_cell ~src c e)
                        (Jrpm.Explore.cell_tasks configs entries)))
          in
          let what = Gen.describe req in
          Wl.check tally ("replica " ^ what)
            (Oracle.check_local (Hashtbl.find st.expected what) local))
        (Gen.serve_deck ~seed:ctx.Wl.seed ~deck:0));
  (src, entries)

let run_traced ctx =
  let tally = Wl.tally () in
  let setup_s, st =
    Wl.repeated_setup ~reps:1 ~discard:(fun _ -> ()) (setup ctx tally)
  in
  Wl.report_setup setup_s;
  let half = ctx.Wl.seconds /. 2. in
  let rate (t0, samples) =
    let last = List.fold_left (fun a s -> Float.max a s.done_at) t0 samples in
    float_of_int (List.length samples) /. (last -. t0)
  in
  Spans.reset ~enabled:false;
  let untraced = closed_loop ctx st tally ~seconds:half ~traced:false in
  let before = stats st in
  Spans.set_enabled true;
  let ((_, samples) as traced) =
    closed_loop ctx st tally ~seconds:half ~traced:true
  in
  Spans.set_enabled false;
  let after = stats st in
  stop_daemon st.daemon;
  Spans.set_enabled true;
  let src, entries = anatomy ctx st tally in
  Spans.set_enabled false;
  let mean f =
    Report.ratio
      (List.fold_left (fun a s -> a +. f s) 0. samples)
      (float_of_int (List.length samples))
  in
  let delta path = float_of_int (int_at path after - int_at path before) in
  Wl.dump_spans ctx "serve";
  Wl.finish tally
    (Wl.layer_values ~passes:1
       ~extra:
         ([
            ("daemon.server_ms", mean (fun s -> s.server *. 1000.));
            ("daemon.wait_ms", mean (fun s -> (s.latency -. s.server) *. 1000.));
            ("daemon.queue_depth", mean (fun s -> float_of_int s.queue_depth));
            ("daemon.tasks_per_request", mean (fun s -> float_of_int s.tasks));
            ("daemon.cache_hits", delta [ "mapping_cache"; "hits" ]);
            ("daemon.cache_misses", delta [ "mapping_cache"; "misses" ]);
            ( "daemon.worker_deaths",
              float_of_int (int_at [ "worker_deaths" ] after) );
            ("trace.overhead_frac", (rate untraced /. rate traced) -. 1.);
          ]
         @ Wl.replay_split ~passes:1 ~src entries))
