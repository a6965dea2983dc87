(** One TEST comparator bank (paper Fig. 7).

    A bank tracks the progress of one active STL: the loop-entry
    timestamp, the current and previous thread-start timestamps, the
    per-thread shortest ("critical") dependency arc in each of the two
    bins (to thread t-1, to threads < t-1), and the per-thread counts of
    newly-touched speculative load / store lines for the overflow
    analysis. At each end-of-iteration the per-thread values are
    accumulated into counters; at loop exit the counters are merged into
    the per-STL {!Stats.t}. *)

type t = {
  (* identity fields are mutable so an eloop'd bank can be recycled for
     the next activation ({!reuse}) instead of allocating a record per
     sloop *)
  mutable stl : int;
  mutable stats : Stats.t;
  mutable obs : Obs.Sink.t;
  mutable entry_time : int;
  mutable start_t : int;       (** current thread start timestamp *)
  mutable start_tm1 : int;     (** previous thread start timestamp *)
  (* per-current-thread state *)
  mutable cur_min_prev : int;      (** [max_int] = no arc this thread *)
  mutable cur_min_earlier : int;
  mutable ld_lines : int;
  mutable st_lines : int;
  mutable overflowed : bool;
  (* accumulators since loop entry *)
  mutable threads : int;
  mutable acc_prev_count : int;
  mutable acc_prev_len : int;
  mutable acc_earlier_count : int;
  mutable acc_earlier_len : int;
  mutable acc_overflow : int;
  mutable max_ld : int;
  mutable max_st : int;
}

let create ?(obs = Obs.Sink.null) ?stats ~stl ~now () =
  {
    stl;
    stats = (match stats with Some s -> s | None -> Stats.create stl);
    obs;
    entry_time = now;
    start_t = now;
    start_tm1 = now;
    cur_min_prev = max_int;
    cur_min_earlier = max_int;
    ld_lines = 0;
    st_lines = 0;
    overflowed = false;
    threads = 0;
    acc_prev_count = 0;
    acc_prev_len = 0;
    acc_earlier_count = 0;
    acc_earlier_len = 0;
    acc_overflow = 0;
    max_ld = 0;
    max_st = 0;
  }

(* Re-arm a recycled bank for a new activation: same field-by-field
   state as {!create}, but writing into an existing record so the
   sloop/eloop boundary allocates nothing in steady state. *)
let reuse t ?(obs = Obs.Sink.null) ?stats ~stl ~now () =
  t.stl <- stl;
  t.stats <- (match stats with Some s -> s | None -> Stats.create stl);
  t.obs <- obs;
  t.entry_time <- now;
  t.start_t <- now;
  t.start_tm1 <- now;
  t.cur_min_prev <- max_int;
  t.cur_min_earlier <- max_int;
  t.ld_lines <- 0;
  t.st_lines <- 0;
  t.overflowed <- false;
  t.threads <- 0;
  t.acc_prev_count <- 0;
  t.acc_prev_len <- 0;
  t.acc_earlier_count <- 0;
  t.acc_earlier_len <- 0;
  t.acc_overflow <- 0;
  t.max_ld <- 0;
  t.max_st <- 0

let arc_none = 0
let arc_prev = 1
let arc_earlier = 2

(** Dependency-arc identification (paper Sec. 4.2.1) as an unboxed int
    code: compare a retrieved store timestamp against the thread-start
    timestamps. Stores from before the loop entry are inputs, not
    inter-thread dependencies. *)
let classify_code t ~store_ts =
  if store_ts >= t.start_t then arc_none (* same thread *)
  else if store_ts >= t.start_tm1 && t.start_tm1 < t.start_t then arc_prev
  else if store_ts >= t.entry_time && t.start_t > t.entry_time then arc_earlier
  else arc_none

(* The arc length for any classified arc is [now - store_ts]; the code
   carries no payload so the tracer's per-event path allocates no
   variant block. *)
let note_load_dep_code t ~store_ts ~now =
  let code = classify_code t ~store_ts in
  (if code = arc_prev then begin
     let len = now - store_ts in
     if len < t.cur_min_prev then t.cur_min_prev <- len
   end
   else if code = arc_earlier then begin
     let len = now - store_ts in
     if len < t.cur_min_earlier then t.cur_min_earlier <- len
   end);
  code

(** Overflow analysis (paper Sec. 4.2.2): [in_current_thread] is column
    (e) of Fig. 4 — the line was last touched by the current thread. *)
(* First time the current thread's footprint crosses the limits, report
   it (with the footprint at the crossing) to the observability sink. *)
let note_overflow t ~now =
  if (not t.overflowed) && Obs.Sink.enabled t.obs then
    Obs.Sink.emit t.obs
      (Obs.Event.Overflow
         { stl = t.stl; ld_lines = t.ld_lines; st_lines = t.st_lines; now });
  t.overflowed <- true

let note_load_line t ~in_current_thread ~ld_limit ~st_limit ~now =
  if not in_current_thread then begin
    t.ld_lines <- t.ld_lines + 1;
    if t.ld_lines > ld_limit || t.st_lines > st_limit then
      note_overflow t ~now
  end

let note_store_line t ~in_current_thread ~ld_limit ~st_limit ~now =
  if not in_current_thread then begin
    t.st_lines <- t.st_lines + 1;
    if t.ld_lines > ld_limit || t.st_lines > st_limit then
      note_overflow t ~now
  end

(** Finalize the current thread: accumulate its critical arcs and
    overflow flag, then shift thread-start timestamps (the [eoi]
    operation of Table 4). *)
let end_thread t ~now =
  t.threads <- t.threads + 1;
  if t.cur_min_prev < max_int then begin
    t.acc_prev_count <- t.acc_prev_count + 1;
    t.acc_prev_len <- t.acc_prev_len + t.cur_min_prev
  end;
  if t.cur_min_earlier < max_int then begin
    t.acc_earlier_count <- t.acc_earlier_count + 1;
    t.acc_earlier_len <- t.acc_earlier_len + t.cur_min_earlier
  end;
  if t.overflowed then t.acc_overflow <- t.acc_overflow + 1;
  if t.ld_lines > t.max_ld then t.max_ld <- t.ld_lines;
  if t.st_lines > t.max_st then t.max_st <- t.st_lines;
  t.cur_min_prev <- max_int;
  t.cur_min_earlier <- max_int;
  t.ld_lines <- 0;
  t.st_lines <- 0;
  t.overflowed <- false;
  t.start_tm1 <- t.start_t;
  t.start_t <- now

(** Merge the bank's accumulators into the per-STL statistics at loop
    exit ([eloop]). The final (partial) thread is finalized first. *)
let merge_into t (s : Stats.t) ~now =
  end_thread t ~now;
  s.Stats.threads <- s.Stats.threads + t.threads;
  s.Stats.traced_threads <- s.Stats.traced_threads + t.threads;
  s.Stats.traced_entries <- s.Stats.traced_entries + 1;
  s.Stats.crit_prev_count <- s.Stats.crit_prev_count + t.acc_prev_count;
  s.Stats.crit_prev_len <- s.Stats.crit_prev_len + t.acc_prev_len;
  s.Stats.crit_earlier_count <- s.Stats.crit_earlier_count + t.acc_earlier_count;
  s.Stats.crit_earlier_len <- s.Stats.crit_earlier_len + t.acc_earlier_len;
  s.Stats.overflow_threads <- s.Stats.overflow_threads + t.acc_overflow;
  if t.max_ld > s.Stats.max_load_lines then s.Stats.max_load_lines <- t.max_ld;
  if t.max_st > s.Stats.max_store_lines then s.Stats.max_store_lines <- t.max_st
