type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = Str of string | Big of bigstring

let of_string s = Str s

let length = function
  | Str s -> String.length s
  | Big b -> Bigarray.Array1.dim b

(* The two-constructor match compiles to a single test and both arms
   use the unchecked accessor, so a mapped container reads at the same
   per-byte cost as an in-memory string. Callers check bounds. (The
   event decoder keeps its own copy, [Reader.byte]: a call across
   modules is not inlined in the default build.) *)
let[@inline] unsafe_get t i =
  match t with
  | Str s -> String.unsafe_get s i
  | Big b -> Bigarray.Array1.unsafe_get b i

let sub_string t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Trace_store.Bytesrc.sub_string";
  match t with
  | Str s -> String.sub s pos len
  | Big b ->
      String.init len (fun i -> Bigarray.Array1.unsafe_get b (pos + i))

(* Read the whole file through a channel — the fallback when the file
   cannot be mapped (empty files make mmap fail with EINVAL, and some
   filesystems refuse mappings outright). *)
let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Str (really_input_string ic (in_channel_length ic)))

let corrupt path fmt =
  Printf.ksprintf (fun msg -> raise (Corrupt.Corrupt (path ^ ": " ^ msg))) fmt

let map_file path =
  (* Stat first: [openfile] succeeds on directories (read fails later
     with a baffling [Sys_error]) and blocks forever on FIFOs, and a
     missing path used to escape as a raw [Unix_error]. All of those
     are "not a trace container" to the caller — say so, with the
     path, before touching the file. *)
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_REG; _ } -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      corrupt path "is a directory, not a trace container"
  | { Unix.st_kind = _; _ } ->
      corrupt path "is not a regular file"
  | exception Unix.Unix_error (err, _, _) ->
      corrupt path "cannot stat: %s" (Unix.error_message err));
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (err, _, _) ->
      corrupt path "cannot open: %s" (Unix.error_message err)
  | fd -> (
      match
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |])
      with
      | genarray -> Big (Bigarray.array1_of_genarray genarray)
      | exception (Unix.Unix_error _ | Sys_error _) -> (
          (* Empty files make mmap fail with EINVAL and some
             filesystems refuse mappings outright — degrade to a plain
             read. If even that fails, report corruption, not an
             unhandled exception. *)
          match read_whole_file path with
          | src -> src
          | exception (Unix.Unix_error _ | Sys_error _) ->
              corrupt path "cannot read"))
