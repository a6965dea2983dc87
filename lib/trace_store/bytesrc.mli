(** Backing bytes for a trace container: an in-memory [string] or a
    read-only file mapping ([Unix.map_file] into a char {!Bigarray}).

    The mapping is what makes zero-copy record handoff work: the parent
    maps the container once, forked decoder workers inherit the pages,
    and a task is just an (offset, length) pair into the shared bytes —
    no per-task [open], header re-read, or chunk copy. The reader's
    hot path decodes {e in place} over either constructor with the
    same unchecked access as {!unsafe_get}, so the two backends
    produce byte-identical results by construction. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = Str of string | Big of bigstring

val of_string : string -> t

val length : t -> int

val unsafe_get : t -> int -> char
(** Unchecked byte access — a constructor test plus an unchecked load
    (the event decoder inlines its own copy). The caller must have
    bounds-checked [i] against {!length}. *)

val sub_string : t -> pos:int -> len:int -> string
(** Copy a range out as a string (metadata-sized uses only — the event
    hot path never calls this). @raise Invalid_argument out of range. *)

val map_file : string -> t
(** Map a file read-only ([Big]); falls back to reading the whole file
    into a [Str] when mapping fails (empty file, or a filesystem
    without mmap), so callers never see the difference.
    @raise Corrupt.Corrupt (= {!Reader.Corrupt}) naming the path when
    it cannot be read as a container at all: missing file, directory,
    FIFO/device, or an unreadable regular file. *)
