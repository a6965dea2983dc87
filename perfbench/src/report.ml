(* Metric vocabulary, summary statistics and the result line.

   The two lists below are the benchmark's contract with BENCHMARK.json:
   an untraced run reports exactly [end_to_end], a traced run exactly
   [per_layer] (the test suite checks the two files agree). Metrics a
   workload's timed pass never exercises read 0 in the traced run. *)

type metric = { name : string; unit_ : string }

let m name unit_ = { name; unit_ }

(* peak_rss_mb is filled in by run.py, which reaps the benchmark process
   and so sees the peak of the whole process tree. *)
let end_to_end =
  [
    m "setup_s" "s"; m "wall_s" "s"; m "throughput_per_s" "1/s"; m "cpu_s" "s";
    m "peak_rss_mb" "MB";
  ]

let per_layer =
  [
    m "tls_sim.s" "s"; m "tls_sim.share" "ratio"; m "tls_sim.sim_cycles" "count";
    m "tls_sim.host_ns_per_sim_cycle" "ns/cycle"; m "tls_sim.commit_ratio" "ratio";
    m "seq_interp.plain_s" "s"; m "seq_interp.instructions" "count";
    m "seq_interp.minstr_per_s" "Minstr/s"; m "profile.annotated_s" "s";
    m "tracer.s" "s"; m "tracer.events" "count"; m "tracer.mev_per_s" "Mev/s";
    m "tracer.heap_fifo_evictions" "count"; m "analyzer.s" "s";
    m "writer.capture_s" "s"; m "writer.bytes_per_event" "B/event";
    m "writer.compression_ratio" "ratio"; m "reader.decode_s" "s";
    m "reader.decode_mev_per_s" "Mev/s"; m "bytesrc.map_s" "s"; m "index.s" "s";
    m "frontend.s" "s"; m "codegen.s" "s"; m "scheduler.idle_fraction" "ratio";
    m "scheduler.busy_s" "s"; m "scheduler.max_worker_busy_s" "s";
    m "scheduler.frames" "count"; m "scheduler.tasks" "count";
    m "daemon.server_ms" "ms"; m "daemon.wait_ms" "ms";
    m "daemon.queue_depth" "count"; m "daemon.tasks_per_request" "count";
    m "daemon.cache_hits" "count"; m "daemon.cache_misses" "count";
    m "daemon.worker_deaths" "count"; m "trace.overhead_frac" "ratio";
  ]

(* ---------------- name validation ---------------- *)

let name_ok s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let unit_ok s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' ->
             true
         | _ -> false)
       s

let distinct l = List.length (List.sort_uniq compare l) = List.length l

(* Problems with a metric list against the result-format limits. *)
let validate ~max metrics =
  let bad =
    List.filter_map
      (fun { name; unit_ } ->
        if not (name_ok name) then Some ("bad metric name " ^ name)
        else if not (unit_ok unit_) then Some ("bad unit " ^ unit_ ^ " for " ^ name)
        else None)
      metrics
  in
  let n = List.length metrics in
  bad
  @ (if n < 1 || n > max then [ Printf.sprintf "%d metrics, limit %d" n max ]
     else [])
  @ if distinct (List.map (fun x -> x.name) metrics) then []
    else [ "duplicate metric name" ]

(* ---------------- statistics ---------------- *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it: the
   sample with exactly ten above it. Returns [(value, percentile, n)];
   with ten or fewer samples it is the maximum. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (0., 0., 0)
  else if n <= 10 then (a.(n - 1), 100., n)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, n)

let ratio a b = if b > 0. then a /. b else 0.

(* ---------------- output ---------------- *)

let line fmt = Printf.printf (fmt ^^ "\n%!")

let print_metric name value unit_ = line "metric %-32s %14.6f %s" name value unit_

(* The result line: [values] must name every metric of [metrics]. *)
let result_json ~correct ~attempted ~failed metrics values =
  let open Obs.Json in
  Obj
    [
      ("correct", Bool correct);
      ("attempted", Int attempted);
      ("failed", Int failed);
      ( "metrics",
        Obj
          (List.map
             (fun { name; unit_ } ->
               let v =
                 match List.assoc_opt name values with
                 | Some v when Float.is_finite v -> v
                 | Some _ -> 0.
                 | None -> invalid_arg ("metric not measured: " ^ name)
               in
               (name, Obj [ ("value", Float v); ("unit", String unit_) ]))
             metrics) );
    ]
