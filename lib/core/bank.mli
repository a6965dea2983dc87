(** One TEST comparator bank (paper Fig. 7).

    A bank tracks one active STL activation: the loop-entry timestamp,
    current / previous thread-start timestamps, the per-thread shortest
    ("critical") dependency arc in each bin, and per-thread speculative
    line counts for the overflow analysis. [end_thread] is the [eoi]
    operation of Table 4; [merge_into] folds the bank's accumulators
    into the per-STL {!Stats.t} at [eloop]. *)

type t = {
  mutable stl : int;
  mutable stats : Stats.t;
      (** the per-STL statistics this bank merges into — cached here so
          the per-arc hot path never does a hashtable lookup *)
  mutable obs : Obs.Sink.t;
      (** observability sink; {!Obs.Sink.null} when off *)
  mutable entry_time : int;
  mutable start_t : int;
  mutable start_tm1 : int;
  mutable cur_min_prev : int;
  mutable cur_min_earlier : int;
  mutable ld_lines : int;
  mutable st_lines : int;
  mutable overflowed : bool;
  mutable threads : int;
  mutable acc_prev_count : int;
  mutable acc_prev_len : int;
  mutable acc_earlier_count : int;
  mutable acc_earlier_len : int;
  mutable acc_overflow : int;
  mutable max_ld : int;
  mutable max_st : int;
}

val create : ?obs:Obs.Sink.t -> ?stats:Stats.t -> stl:int -> now:int -> unit -> t
(** A fresh bank for one activation of [stl] entered at cycle [now];
    [obs] (default {!Obs.Sink.null}) receives an {!Obs.Event.Overflow}
    the first time each thread's footprint crosses the buffer limits.
    [stats] (default a fresh {!Stats.create}) is the per-STL record the
    bank will merge into — pass the tracer's table entry. *)

val reuse : t -> ?obs:Obs.Sink.t -> ?stats:Stats.t -> stl:int -> now:int -> unit -> unit
(** Re-arm an already-allocated bank for a new activation — identical
    post-state to {!create}, but in place, so the tracer can pool bank
    records through a free-list and keep the sloop/eloop loop boundary
    allocation-free. The identity fields ([stl], [stats], [obs],
    [entry_time]) are mutable solely for this. *)

(** {2 Arc codes} — unboxed ints, so that classifying a dependency
    allocates nothing; the arc length is always [now - store_ts]. *)

val arc_none : int
val arc_prev : int
val arc_earlier : int

val note_load_dep_code : t -> store_ts:int -> now:int -> int
(** Dependency-arc identification (paper Sec. 4.2.1) plus per-thread
    critical (shortest) arc tracking: a store timestamp within the
    current thread is not an arc ({!arc_none}); within the previous
    thread it is an {!arc_prev} arc; after loop entry but before the
    previous thread an {!arc_earlier} arc; before loop entry it is an
    input, not a dependency ({!arc_none}). Allocation-free. *)

val note_load_line :
  t -> in_current_thread:bool -> ld_limit:int -> st_limit:int -> now:int -> unit
(** Overflow analysis, load side (Fig. 4 column f): count a newly
    touched speculative line unless the line was already accessed by the
    current thread; set the overflow flag past the Table 1 limits. *)

val note_store_line :
  t -> in_current_thread:bool -> ld_limit:int -> st_limit:int -> now:int -> unit
(** Overflow analysis, store side — same counting over store lines. *)

val end_thread : t -> now:int -> unit
(** Finalize the current thread and shift thread-start timestamps. *)

val merge_into : t -> Stats.t -> now:int -> unit
(** Finalize the final (partial) thread and accumulate everything into
    the per-STL statistics. *)
