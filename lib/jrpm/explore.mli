(** Hardware design-space exploration over a captured trace archive.

    [jrpm explore] evaluates a cartesian grid of {!Hydra.Config.t}
    variants against the trace store: every grid point replays each
    record through a fresh tracer (geometry re-derived from the point
    via {!Test_core.Tracer.config_of}) and re-runs the Eq. 1 / Eq. 2
    analysis at that machine ({!Replay.replay_entry} with [?hw]) —
    no re-interpretation, so a thousand-point sweep costs thousands of
    replays, each 20–40× cheaper than a pipeline run. The default
    machine is always evaluated first as the reference column and its
    summaries are byte-identical to interpreted sweep output (the
    replay-determinism invariant). The archive is mapped once
    ({!Trace_store.Bytesrc.map_file}) and indexed from the mapped tail;
    the grid fans out one {!Scheduler} task per (config point ×
    record) — {!Replay.replay_entry} seeking into the mapping the
    forked workers inherit — with the index's event counts weighting
    the adaptive frame plan, so the work-stealing pool stays busy even
    when the grid is narrow or one record dominates; cells regroup into
    grid-order points afterward.

    Simulation-derived summary fields ([tls_cycles], [actual_speedup],
    violation/stall counts) pass through from the capture machine —
    only the analysis verdicts and predictions respond to the config
    (see {!Replay.replay_entry}). *)

type axis = { field : string; values : int list }

val parse_grid : string list -> axis list
(** Parse [--grid] specs of the form ["axis=v1,v2,..."]; axis names are
    the {!Hydra.Config.short_names} ([cpus], [banks], [heap_fifo],
    [cacheline_ts], [local_slots], [load_buffer], [store_buffer],
    [line_words], [startup], [shutdown], [eoi], [restart], [forward])
    or the canonical field names.
    @raise Failure on malformed specs, unknown axes, or a repeated
    axis. *)

val points : axis list -> Hydra.Config.t list
(** Cartesian product applied to {!Hydra.Config.default}, row-major:
    the first axis varies slowest, values in listed order. Each point
    is validated ({!Hydra.Config.validate}).
    @raise Invalid_argument on an out-of-range point. *)

val configs_of_grid : axis list -> Hydra.Config.t list
(** {!points} with the default machine prepended as the reference point
    and duplicate fingerprints collapsed (first occurrence wins). *)

type cell = {
  workload : string;
  summary : Report_summary.t;  (** replayed at this config point *)
  chosen_stls : int list;  (** Eq.-2-chosen STL ids, sorted *)
}

type point_result = {
  config : Hydra.Config.t;
  fingerprint : string;
  label : string;  (** {!Hydra.Config.label} — diff vs default *)
  cells : cell list;  (** archive record order *)
}

type flip = {
  flip_workload : string;
  flip_label : string;
  flip_fingerprint : string;
  default_chosen : int list;
  chosen : int list;
  default_speedup : float;  (** predicted, at the default point *)
  speedup : float;  (** predicted, at this point *)
}

type t = {
  archive : string;  (** path of the replayed container *)
  points : point_result list;  (** default first, then grid order *)
  flips : flip list;
      (** every (workload, non-default point) whose chosen-STL set
          differs from the default column *)
}

val eval_cell :
  src:Trace_store.Bytesrc.t -> Hydra.Config.t -> Trace_store.Index.entry ->
  cell
(** Replay one record at one config point over a pre-mapped container
    ({!Replay.replay_entry} with [?hw]) — the grid's unit of work,
    exposed so the serve daemon can submit cells to its persistent
    pool against a cached mapping.
    @raise Trace_store.Reader.Corrupt / [Failure] as
    {!Replay.replay_entry}. *)

val cell_tasks :
  Hydra.Config.t list -> Trace_store.Index.entry list ->
  (Hydra.Config.t * Trace_store.Index.entry) list
(** The config-major (point × record) task order [run] evaluates and
    {!assemble} expects. *)

val assemble :
  archive:string -> configs:Hydra.Config.t list -> records:int ->
  cell list -> t
(** Regroup a flat config-major cell list ({!cell_tasks} order, i.e.
    [records] cells per config in archive record order) into the full
    matrix with fingerprints, labels, and verdict flips.
    @raise Failure when the cell count is not
    [configs * records]. *)

val run : ?jobs:int -> grid:string list -> path:string -> unit -> t
(** Parse [grid], evaluate {!configs_of_grid} over the container at
    [path] — one scheduler task per (point × record) across [jobs]
    workers (default {!Scheduler.default_jobs}) — and report
    verdict flips. Output is byte-identical for any [jobs].
    @raise Failure on grid errors or worker failures;
    @raise Trace_store.Reader.Corrupt / [Sys_error] on a bad archive. *)

val default_point : t -> point_result
val default_summaries : t -> Report_summary.t list
(** The reference column — byte-identical to [jrpm sweep] summaries of
    the same workloads. *)

val workloads : t -> string list

val render : t -> string
(** The per-(workload × config) verdict/speedup matrix (cells are
    [chosen @ predicted], [*] marks a chosen-set change vs default)
    followed by the verdict-flips table. *)

val to_json : t -> Obs.Json.t
(** Machine-readable matrix ([schema_version] 1): workloads, one entry
    per config point (fingerprint, label, config, per-workload summary
    + chosen STLs), and the flips list. *)
