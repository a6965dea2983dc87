(** Replay side of the trace store: stream a container's records back
    into any {!Hydra.Trace.sink} — typically a fresh
    [Test_core.Tracer], which then cannot tell replay from live
    interpretation.

    A reader is a cursor over the container: {!next_record} yields the
    next record's name and metadata (skipping the rest of the current
    record if its events were not consumed), {!replay} decodes the
    current record's event stream into a sink.

    Every reader decodes in place over a {!Bytesrc.t}
    ([of_src (Bytesrc.of_string s)] for bytes in memory,
    [of_src (Bytesrc.map_file path)] for a file): the inlined-varint hot
    path is allocation-free per event, and skipping a record only walks
    its chunk frames. A reader over {!Bytesrc.map_file} is the zero-copy
    handoff path: the parent maps the container once, forked workers
    inherit the read-only pages, and each worker builds a cheap cursor
    with {!of_src} + {!seek_record} — no per-task file open, header
    read, or chunk copy.

    This module is the container's only decoder. {!Index} and the
    writer's record check walk the same frames through the frame-level
    functions at the end of this interface, so the header check, the
    chunk framing, the record begin/end parsers and the varint loop
    each exist once.

    Every structural violation — bad magic or version, truncation, an
    unknown opcode, a varint overflowing the native int, an [op_repeat]
    with no reference segment or one that would expand past the
    record's declared event count, or an end-chunk event-count /
    final-timestamp / checksum mismatch — raises {!Corrupt} with a
    description; {!Corrupt} is the *only* error a well-typed caller
    must handle for hostile input. Unknown {e chunk tags} are skipped
    by their declared length, as the §7 forward-compat rule requires.

    Versioning contract: this reader accepts exactly
    {!Layout.version}. A future writer that changes anything an old
    reader would silently misdecode (opcode meaning, predictor
    assignment, checksum definition) must bump the version byte;
    additions that old readers can ignore (new chunk tags, header
    extension bytes) must not. *)

type t

exception Corrupt of string
(** The file is not a well-formed version-{!Layout.version} container.
    The message says what failed and where it was detected. This is a
    rebinding of {!Corrupt.Corrupt} — the same exception
    {!Bytesrc.map_file} raises for unreadable paths — so catching
    either name catches both. *)

type record = { name : string; meta : Obs.Json.t }
(** One workload record's identity: the begin-chunk name and decoded
    metadata object (see {!Jrpm.Replay} for the schema the pipeline
    writes). *)

type replay_stats = {
  events : int;       (** logical events delivered to the sink *)
  record_bytes : int; (** encoded record size, begin chunk through end
                          chunk — the denominator of bytes/event *)
}

val of_src : Bytesrc.t -> t
(** A reader over any byte source. Cheap (validates the header,
    copies nothing): the record-sharded decoder builds one per task
    over the shared mapping. @raise Corrupt on a bad header. *)

val next_record : t -> record option
(** Advance to the next record and return its identity, or [None] at
    the container end (which must be the explicit end chunk — EOF
    before it raises {!Corrupt}). Undecoded events of the current
    record are skipped frame-by-frame without checksum verification. *)

val seek_record : t -> offset:int -> record
(** Position the cursor at the record whose begin chunk starts at the
    absolute container [offset] (an {!Index.entry}'s [offset]) and
    return its identity, exactly as if {!next_record} had just walked
    to it: codec state is reset, so {!replay} then decodes the record
    identically to a sequential pass — records being self-contained is
    what makes the sharded parallel decoder sound. The cursor continues
    forward from there; seeking backward is allowed.
    @raise Corrupt when [offset] does not address a record. *)

val replay : t -> Hydra.Trace.sink -> replay_stats
(** Decode the current record's whole event stream into the sink, in
    capture order, verifying the end chunk. The end chunk is found
    first, by walking the record's frame lengths: an [op_repeat] whose
    expansion would take the record past its declared event count
    raises {!Corrupt} before any of it is expanded, so decompression
    never costs more than the count the record (and its {!Index.entry})
    declares. Must follow a successful {!next_record}; a second call
    for the same record raises [Invalid_argument] (records stream
    once — reopen to re-replay). *)

(** {2 Frame-level decoder}

    The pieces {!Index} shares with the cursor above. Each reads in
    place from a {!Bytesrc.t} at absolute offsets and raises {!Corrupt}
    on anything malformed; a [pos] argument is advanced past what was
    read. *)

val header_end : Bytesrc.t -> int
(** Check the magic, the version byte and the header-extension length,
    and return the offset of the first chunk. *)

val rd_count : Bytesrc.t -> int ref -> int -> int
(** [rd_count b pos limit]: the unsigned varint at [!pos], read no
    further than [limit] — the container's one varint decoder, which
    the event loop inlines. *)

val read_frame : Bytesrc.t -> int ref -> int * int * int
(** Read the chunk frame at [!pos]: [(tag, payload offset, payload
    length)], with [pos] advanced past the payload. *)

val next_record_frame : Bytesrc.t -> int ref -> (int * int * int) option
(** Walk top-level chunks from [!pos] to the next record-begin chunk:
    [Some (offset of its tag byte, payload offset, payload length)], or
    [None] at the container end chunk, which must end the source.
    Unknown chunk kinds are skipped by length; an event or record-end
    chunk outside a record is {!Corrupt}. *)

val record_begin : Bytesrc.t -> int -> int -> string * int * int
(** [record_begin b off len] parses the record-begin payload at
    [off]: the record name and the (offset, length) span of its
    metadata JSON. *)

val record_end : Bytesrc.t -> int ref -> int * int * int
(** From [!pos] just past a record-begin chunk, walk the record's
    frames (lengths only, no event decoding) through its end chunk and
    return that chunk's [(event count, final timestamp, checksum)],
    with [pos] just past the record. *)
