(** LEB128 variable-length integers — the primitive every field of the
    on-disk trace format (ARCHITECTURE.md §7) is built from. This is
    the encoding half; the container's one decoder loop is the
    reader's ({!Reader}).

    An unsigned varint stores an int 7 bits at a time, least-significant
    group first; the high bit of each byte marks "more bytes follow".
    Values 0–127 cost one byte, which is why the delta/RLE layers above
    work so hard to keep their operands small. Signed values go through
    the zigzag map first ([0, -1, 1, -2, …] → [0, 1, 2, 3, …]) so that
    small negative deltas stay small on disk.

    Encoders append to a [Buffer.t]. OCaml's native [int] (63-bit) is
    the value space: encoding is defined for any native int and takes
    at most 9 bytes. *)

val write_unsigned : Buffer.t -> int -> unit
(** Append the LEB128 encoding of [n]; [n] must be non-negative.
    @raise Invalid_argument on a negative value. *)

val write_signed : Buffer.t -> int -> unit
(** Append the zigzag-then-LEB128 encoding of [n] (any native int). *)

val zigzag : int -> int
(** [0 → 0, -1 → 1, 1 → 2, -2 → 3, …]: maps small-magnitude signed ints
    to small unsigned ints. Exposed for the format spec's test vectors. *)
