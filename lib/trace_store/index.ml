type entry = { name : string; offset : int; bytes : int; events : int }

let corrupt fmt = Printf.ksprintf (fun s -> raise (Reader.Corrupt s)) fmt

(* Frames come from the reader's decoder; this module only adds the
   index chunk's own payload layout. *)

let record_events b pos =
  let events, _final_now, _checksum = Reader.record_end b pos in
  events

let scan b start =
  let pos = ref start in
  let rec loop acc =
    match Reader.next_record_frame b pos with
    | None -> List.rev acc
    | Some (offset, poff, plen) ->
        let name, _, _ = Reader.record_begin b poff plen in
        let events = record_events b pos in
        loop ({ name; offset; bytes = !pos - offset; events } :: acc)
  in
  loop []

(* ---------------- embedded index chunk ---------------- *)

let chunk_payload entries =
  let b = Buffer.create 256 in
  Varint.write_unsigned b (List.length entries);
  List.iter
    (fun e ->
      Varint.write_unsigned b (String.length e.name);
      Buffer.add_string b e.name;
      Varint.write_unsigned b e.offset;
      Varint.write_unsigned b e.bytes;
      Varint.write_unsigned b e.events)
    entries;
  Buffer.contents b

let decode_chunk_payload b poff plen =
  let stop = poff + plen in
  let p = ref poff in
  let uv () = Reader.rd_count b p stop in
  let count = uv () in
  let entries = ref [] in
  for _ = 1 to count do
    let nlen = uv () in
    if nlen > stop - !p then corrupt "index name overruns the index chunk";
    let name = Bytesrc.sub_string b ~pos:!p ~len:nlen in
    p := !p + nlen;
    let offset = uv () in
    let bytes = uv () in
    let events = uv () in
    entries := { name; offset; bytes; events } :: !entries
  done;
  if !p <> stop then
    corrupt "%d trailing bytes in the index chunk" (stop - !p);
  List.rev !entries

type layout = Embedded of { poff : int; plen : int; base : int } | Legacy of int

(* The index chunk, when one directly follows the header. *)
let layout b =
  let start = Reader.header_end b in
  if
    start < Bytesrc.length b
    && Char.code (Bytesrc.unsafe_get b start) = Layout.tag_index
  then
    let pos = ref start in
    let _tag, poff, plen = Reader.read_frame b pos in
    Embedded { poff; plen; base = !pos }
  else Legacy start

let embedded_chunk_size b =
  match layout b with Embedded { plen; _ } -> Some plen | Legacy _ -> None

let of_src b =
  match layout b with
  | Legacy start -> scan b start
  | Embedded { poff; plen; base } ->
      let entries =
        List.map
          (fun e -> { e with offset = base + e.offset })
          (decode_chunk_payload b poff plen)
      in
      (* trust but verify: a stale or hand-edited index must not send the
         sharded decoder into the middle of a chunk. Only one byte per
         record is touched — the mapped tail parses without reading the
         container body. *)
      List.iter
        (fun e ->
          if
            e.offset < 0
            || e.offset >= Bytesrc.length b
            || e.bytes > Bytesrc.length b - e.offset
            || Char.code (Bytesrc.unsafe_get b e.offset)
               <> Layout.tag_record_begin
          then corrupt "index entry for %S does not point at a record" e.name)
        entries;
      entries

(* The mapping is paged in lazily, so [of_src] reads only the header,
   the index chunk and one byte per record of it: `trace info --records`
   on a multi-GB archive costs a few KB of IO. *)
let of_file path = of_src (Bytesrc.map_file path)

(* ---------------- writer support ---------------- *)

(* Validate that [r] is exactly one framed record and summarize it. *)
let summarize_record r =
  let b = Bytesrc.of_string r in
  let pos = ref 0 in
  let tag, poff, plen = Reader.read_frame b pos in
  if tag <> Layout.tag_record_begin then
    corrupt "record bytes do not start with a record-begin chunk";
  let name, _, _ = Reader.record_begin b poff plen in
  let events = record_events b pos in
  if !pos <> String.length r then corrupt "trailing bytes after the record end";
  (name, events)

let of_records records =
  let off = ref 0 in
  List.map
    (fun r ->
      let name, events = summarize_record r in
      let e = { name; offset = !off; bytes = String.length r; events } in
      off := !off + String.length r;
      e)
    records
