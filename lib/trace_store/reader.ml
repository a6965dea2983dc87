(* Rebinding, not a fresh exception: [Bytesrc.map_file] raises the
   same constructor for unreadable paths, so one catch site covers
   both mapping and decode failures. *)
exception Corrupt = Corrupt.Corrupt

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type record = { name : string; meta : Obs.Json.t }
type replay_stats = { events : int; record_bytes : int }

type cursor = Between_records | In_record | Container_done

(* A reader decodes *in place* over a byte source — container bytes
   already in memory, or a read-only file mapping shared with forked
   decoder workers. It never copies an event chunk: payloads are decoded
   and checksummed at their container offsets, and the RLE reference
   segment is an (offset, len) span into the source instead of a copied
   string. *)
type t = {
  src : Bytesrc.t;
  pos : int ref;  (* bytes consumed so far, container start = 0 *)
  mutable cursor : cursor;
  state : Layout.state;
  (* reference segment for op_repeat, as a span into [src];
     seg_len = 0 means none is set (framed segments are never empty) *)
  mutable seg_off : int;
  mutable seg_len : int;
  mutable seg_events : int;  (* events one pass over the segment delivers *)
  mutable record_start : int;
  mutable events : int;
  mutable declared_events : int;  (* the current record's end-chunk count *)
  mutable checksum : int;
}

(* ---------------- bytes and varints ---------------- *)

(* [Bytesrc.unsafe_get], repeated here so that it inlines: the default
   (dev) build compiles every module [-opaque], which turns each
   cross-module call into a generic closure application — one per
   decoded byte. *)
let[@inline] byte b i =
  Char.code
    (match b with
    | Bytesrc.Str s -> String.unsafe_get s i
    | Bytesrc.Big a -> Bigarray.Array1.unsafe_get a i)

(* The one LEB128 decoder — event operands, chunk lengths, record
   fields and index entries all go through it — returning the raw
   63-bit pattern. Bounds are checked against [limit] explicitly
   ([byte] after the check), and failures raise Corrupt directly — no
   exception translation, so sink callbacks can never be mistaken for
   decode errors. The common single-byte value returns without
   entering the multi-byte loop. *)
let[@inline] rd_raw b pos limit =
  let p = !pos in
  if p >= limit then corrupt "truncated varint at byte %d" p;
  let c = byte b p in
  if c < 0x80 then begin
    pos := p + 1;
    c
  end
  else begin
    let acc = ref (c land 0x7f) in
    let shift = ref 7 in
    let p = ref (p + 1) in
    let continue = ref true in
    while !continue do
      if !shift > 56 then corrupt "varint overflow at byte %d" !p;
      if !p >= limit then corrupt "truncated varint at byte %d" !p;
      let c = byte b !p in
      incr p;
      acc := !acc lor ((c land 0x7f) lsl !shift);
      shift := !shift + 7;
      if c < 0x80 then continue := false
    done;
    pos := !p;
    !acc
  end

(* a zigzag delta *)
let[@inline] rd_delta b pos limit =
  let z = rd_raw b pos limit in
  (z lsr 1) lxor (-(z land 1))

(* a length or count *)
let[@inline] rd_count b pos limit =
  let v = rd_raw b pos limit in
  if v < 0 then corrupt "varint overflow before byte %d" !pos;
  v

(* ---------------- frames ---------------- *)

let header_end b =
  let limit = Bytesrc.length b in
  let mlen = String.length Layout.magic in
  if limit < mlen + 1 then corrupt "truncated container header";
  let magic = Bytesrc.sub_string b ~pos:0 ~len:mlen in
  if not (String.equal magic Layout.magic) then
    corrupt "bad magic %S (not a trace container)" magic;
  let v = byte b mlen in
  if v <> Layout.version then
    corrupt "unsupported trace format version %d (this reader speaks %d)" v
      Layout.version;
  let pos = ref (mlen + 1) in
  let ext = rd_count b pos limit in
  if ext > limit - !pos then
    corrupt "truncated container (EOF in header extension)";
  !pos + ext

let read_frame b pos =
  let limit = Bytesrc.length b in
  let start = !pos in
  if start >= limit then
    corrupt "truncated container (EOF at the chunk tag at byte %d)" start;
  let tag = byte b start in
  pos := start + 1;
  let len = rd_count b pos limit in
  let off = !pos in
  if len > limit - off then
    corrupt "truncated container (chunk at byte %d overruns the end)" start;
  pos := off + len;
  (tag, off, len)

let rec next_record_frame b pos =
  let start = !pos in
  let tag, off, len = read_frame b pos in
  if tag = Layout.tag_record_begin then Some (start, off, len)
  else if tag = Layout.tag_container_end then begin
    if !pos <> Bytesrc.length b then
      corrupt "%d trailing bytes after the container end"
        (Bytesrc.length b - !pos);
    None
  end
  else if tag = Layout.tag_events || tag = Layout.tag_record_end then
    corrupt "chunk tag 0x%02x outside a record" tag
  else (* unknown chunk kind: skip by declared length (forward compat) *)
    next_record_frame b pos

let record_begin b off len =
  let stop = off + len in
  let pos = ref off in
  let span what =
    let n = rd_count b pos stop in
    let start = !pos in
    if n > stop - start then corrupt "%s overruns the record-begin chunk" what;
    pos := start + n;
    start
  in
  let name_off = span "record name" in
  let name = Bytesrc.sub_string b ~pos:name_off ~len:(!pos - name_off) in
  let meta_off = span "record metadata" in
  (name, meta_off, !pos - meta_off)

(* Only frame lengths are walked — no event decoding, which is what
   makes indexing a large container, skipping a record and bounding a
   replay cheap. *)
let record_end b pos =
  let rec walk () =
    let tag, off, len = read_frame b pos in
    if tag = Layout.tag_record_end then (off, len)
    else if tag = Layout.tag_record_begin || tag = Layout.tag_container_end
    then corrupt "record not terminated before tag 0x%02x" tag
    else walk ()
  in
  let off, len = walk () in
  let stop = off + len in
  let p = ref off in
  let count = rd_count b p stop in
  let final_now = rd_delta b p stop in
  let p = !p in
  if stop - p < 4 then corrupt "record-end chunk too short for its checksum";
  if stop - p > 4 then
    corrupt "%d trailing bytes in the record-end chunk" (stop - p - 4);
  let checksum =
    byte b p
    lor (byte b (p + 1) lsl 8)
    lor (byte b (p + 2) lsl 16)
    lor (byte b (p + 3) lsl 24)
  in
  (count, final_now, checksum)

(* ---------------- open ---------------- *)

let of_src src =
  {
    src;
    pos = ref (header_end src);
    cursor = Between_records;
    state = Layout.create_state ();
    seg_off = 0;
    seg_len = 0;
    seg_events = 0;
    record_start = 0;
    events = 0;
    declared_events = 0;
    checksum = Layout.fnv32_init;
  }

(* ---------------- event decoding ---------------- *)

(* [operand st slot b pos limit]: delta-decode one operand against its
   predictor slot, kept a top-level function (not a per-event closure)
   so the event loop allocates nothing. Every [slot] is a [Layout.p_*]
   constant below [Layout.pred_count], the length of [preds]. *)
let[@inline] operand st slot b pos limit =
  let v = Array.unsafe_get st.Layout.preds slot + rd_delta b pos limit in
  Array.unsafe_set st.Layout.preds slot v;
  v

let decode_event t op b pos limit sink =
  let st = t.state in
  let dnow = rd_delta b pos limit in
  let now = st.Layout.last_now + dnow in
  st.Layout.last_now <- now;
  t.events <- t.events + 1;
  if op = Layout.op_heap_load then begin
    let addr = operand st Layout.p_heap_load_addr b pos limit in
    let pc = operand st Layout.p_heap_load_pc b pos limit in
    sink.Hydra.Trace.on_heap_load ~addr ~pc ~now
  end
  else if op = Layout.op_heap_store then begin
    let addr = operand st Layout.p_heap_store_addr b pos limit in
    sink.Hydra.Trace.on_heap_store ~addr ~now
  end
  else if op = Layout.op_local_load then begin
    let frame = operand st Layout.p_local_load_frame b pos limit in
    let slot = operand st Layout.p_local_load_slot b pos limit in
    let pc = operand st Layout.p_local_load_pc b pos limit in
    sink.Hydra.Trace.on_local_load ~frame ~slot ~pc ~now
  end
  else if op = Layout.op_local_store then begin
    let frame = operand st Layout.p_local_store_frame b pos limit in
    let slot = operand st Layout.p_local_store_slot b pos limit in
    sink.Hydra.Trace.on_local_store ~frame ~slot ~now
  end
  else if op = Layout.op_eoi then begin
    let stl = operand st Layout.p_eoi_stl b pos limit in
    sink.Hydra.Trace.on_eoi ~stl ~now
  end
  else if op = Layout.op_sloop then begin
    let stl = operand st Layout.p_sloop_stl b pos limit in
    let nlocals = operand st Layout.p_sloop_nlocals b pos limit in
    let frame = operand st Layout.p_sloop_frame b pos limit in
    sink.Hydra.Trace.on_sloop ~stl ~nlocals ~frame ~now
  end
  else if op = Layout.op_eloop then begin
    let stl = operand st Layout.p_eloop_stl b pos limit in
    sink.Hydra.Trace.on_eloop ~stl ~now
  end
  else if op = Layout.op_read_stats then begin
    let stl = operand st Layout.p_read_stats_stl b pos limit in
    sink.Hydra.Trace.on_read_stats ~stl ~now
  end
  else if op = Layout.op_call then begin
    let callee = operand st Layout.p_call_callee b pos limit in
    sink.Hydra.Trace.on_call ~callee ~now
  end
  else if op = Layout.op_return then sink.Hydra.Trace.on_return ~now
  else corrupt "unknown event opcode 0x%02x" op

(* A framed segment contains bare event ops only. Decodes from [!pos]
   up to [stop] and leaves [pos] there: the caller's cursor is reused,
   so a segment costs no allocation. *)
let decode_bare t b pos stop sink =
  while !pos < stop do
    let op = byte b !pos in
    incr pos;
    if op = Layout.op_seg || op = Layout.op_repeat then
      corrupt "framed opcode 0x%02x inside a segment" op;
    decode_event t op b pos stop sink
  done

let decode_payload t b start stop sink =
  let pos = ref start in
  while !pos < stop do
    let op = byte b !pos in
    incr pos;
    if op = Layout.op_seg then begin
      let slen = rd_count b pos stop in
      if slen > stop - !pos then corrupt "segment overruns its event chunk";
      let soff = !pos in
      let before = t.events in
      decode_bare t b pos (soff + slen) sink;
      (* zero-copy reference: the span stays addressable because the
         container bytes (mapped pages or the in-memory string) outlive
         it *)
      t.seg_off <- soff;
      t.seg_len <- slen;
      t.seg_events <- t.events - before
    end
    else if op = Layout.op_repeat then begin
      let count = rd_count b pos stop in
      if t.seg_len = 0 then corrupt "repeat op with no reference segment";
      (* a segment delivers at least one event, so this bounds the
         expansion by the declared count before any of it is decoded *)
      if count = 0 || count > (t.declared_events - t.events) / t.seg_events
      then
        corrupt "repeat count %d overruns the %d events the record declares"
          count t.declared_events;
      let seg_pos = ref 0 in
      for _ = 1 to count do
        seg_pos := t.seg_off;
        decode_bare t b seg_pos (t.seg_off + t.seg_len) sink
      done
    end
    else decode_event t op b pos stop sink
  done

(* ---------------- cursor ---------------- *)

let rec next_record t =
  match t.cursor with
  | Container_done -> None
  | In_record ->
      (* undecoded events are skipped frame-by-frame, unverified *)
      ignore (record_end t.src t.pos : int * int * int);
      t.cursor <- Between_records;
      next_record t
  | Between_records -> (
      match next_record_frame t.src t.pos with
      | None ->
          t.cursor <- Container_done;
          None
      | Some (start, off, len) ->
          let name, meta_off, meta_len = record_begin t.src off len in
          let meta =
            match
              Obs.Json.parse
                (Bytesrc.sub_string t.src ~pos:meta_off ~len:meta_len)
            with
            | Ok j -> j
            | Error e -> corrupt "record metadata is not valid JSON: %s" e
          in
          Layout.reset_state t.state;
          t.seg_off <- 0;
          t.seg_len <- 0;
          t.seg_events <- 0;
          t.events <- 0;
          t.checksum <- Layout.fnv32_init;
          t.record_start <- start;
          t.cursor <- In_record;
          Some { name; meta })

let seek_record t ~offset =
  if offset < 0 then corrupt "seek offset %d is negative" offset;
  if offset > Bytesrc.length t.src then
    corrupt "seek offset %d is past the container end" offset;
  t.pos := offset;
  t.cursor <- Between_records;
  match next_record t with
  | Some r -> r
  | None -> corrupt "no record at offset %d" offset

let replay t sink =
  if t.cursor <> In_record then
    invalid_arg
      "Trace_store.Reader.replay: no current record (call next_record first)";
  (* the end chunk first: its declared count bounds every RLE expansion *)
  let count, final_now, checksum = record_end t.src (ref !(t.pos)) in
  t.declared_events <- count;
  let rec go () =
    let tag, off, len = read_frame t.src t.pos in
    if tag = Layout.tag_events then begin
      (* zero-copy: checksum and decode the chunk at its container
         offset; nothing is materialized per chunk or per task *)
      t.checksum <- Layout.fnv32_src t.checksum t.src ~pos:off ~len;
      decode_payload t t.src off (off + len) sink;
      go ()
    end
    else if tag <> Layout.tag_record_end then
      (* the walk above proved the end chunk comes before any record
         begin or container end; other tags are skipped by length *)
      go ()
  in
  go ();
  if count <> t.events then
    corrupt "event count mismatch: end chunk declares %d, decoded %d" count
      t.events;
  if count > 0 && final_now <> t.state.Layout.last_now then
    corrupt "final timestamp mismatch: end chunk declares %d, decoded %d"
      final_now t.state.Layout.last_now;
  if checksum <> t.checksum then
    corrupt "checksum mismatch: end chunk declares 0x%08x, computed 0x%08x"
      checksum t.checksum;
  t.cursor <- Between_records;
  { events = t.events; record_bytes = !(t.pos) - t.record_start }
