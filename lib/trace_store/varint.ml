(* The raw LEB128 layer works on the 63-bit *bit pattern* of an int
   (lsr/land only), so zigzag outputs that wrap negative still encode in
   at most 9 bytes. The value-semantics checks live in the wrappers. *)

let write_raw buf n =
  let rec go n =
    if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n

let write_unsigned buf n =
  if n < 0 then invalid_arg "Trace_store.Varint.write_unsigned: negative";
  write_raw buf n

let zigzag n = (n lsl 1) lxor (n asr 62)
let write_signed buf n = write_raw buf (zigzag n)
