let magic = "JTRC"
let version = 1

let tag_container_end = 0x00
let tag_record_begin = 0x01
let tag_events = 0x02
let tag_record_end = 0x03
let tag_index = 0x04

let op_repeat = 0x00
let op_sloop = 0x01
let op_eoi = 0x02
let op_eloop = 0x03
let op_read_stats = 0x04
let op_heap_load = 0x05
let op_heap_store = 0x06
let op_local_load = 0x07
let op_local_store = 0x08
let op_call = 0x09
let op_return = 0x0A
let op_seg = 0x0B

let seg_cap = 1 lsl 16
let chunk_cap = 1 lsl 18

type state = { mutable last_now : int; preds : int array }

let p_sloop_stl = 0
let p_sloop_nlocals = 1
let p_sloop_frame = 2
let p_eoi_stl = 3
let p_eloop_stl = 4
let p_read_stats_stl = 5
let p_heap_load_addr = 6
let p_heap_load_pc = 7
let p_heap_store_addr = 8
let p_local_load_frame = 9
let p_local_load_slot = 10
let p_local_load_pc = 11
let p_local_store_frame = 12
let p_local_store_slot = 13
let p_call_callee = 14
let pred_count = 15

let create_state () = { last_now = 0; preds = Array.make pred_count 0 }

let reset_state st =
  st.last_now <- 0;
  Array.fill st.preds 0 pred_count 0

let fnv32_init = 0x811c9dc5

(* FNV-1a over a byte-source range. The hash runs in unboxed [Int32]
   arithmetic: the per-byte multiply chain then carries no int tagging,
   which makes it nearly twice as fast as the tagged form. The backend
   match is hoisted out of the byte loop so checksumming a mapped chunk
   costs the same as a string chunk. [h] and the result are in
   [0, 2^32); bounds are the caller's contract. *)
let fnv32_src h b ~pos ~len =
  let h = ref (Int32.of_int h) in
  (match b with
  | Bytesrc.Str s ->
      for i = pos to pos + len - 1 do
        h :=
          Int32.mul
            (Int32.logxor !h (Int32.of_int (Char.code (String.unsafe_get s i))))
            0x01000193l
      done
  | Bytesrc.Big a ->
      for i = pos to pos + len - 1 do
        h :=
          Int32.mul
            (Int32.logxor !h
               (Int32.of_int (Char.code (Bigarray.Array1.unsafe_get a i))))
            0x01000193l
      done);
  Int32.to_int !h land 0xffffffff

let fnv32 h s = fnv32_src h (Bytesrc.Str s) ~pos:0 ~len:(String.length s)
