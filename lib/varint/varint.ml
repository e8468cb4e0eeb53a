(* Zigzag LEB128 integers: the one varint format shared by the wire
   codec (Shadowdb.Codec), the write-ahead log (Durable.Wal) and the
   conformance trace file (Conform.Trace_file).

   Zigzag folds the sign into the low bit so small negative ints stay
   short; [asr 62] is the sign fill of OCaml's 63-bit native int. The
   groups are then emitted low 7 bits first, the high bit of each byte
   marking a continuation. A 63-bit int needs at most [max_bytes] = 9
   bytes, and the decoder accepts exactly the encodings that fit: a
   continuation past the ninth byte is [Overlong], a buffer that ends
   mid-varint is [Truncated]. Each caller translates {!Malformed} into
   its own error convention. *)

type cursor = { s : string; mutable pos : int }
type error = Truncated | Overlong

exception Malformed of error

let max_bytes = 9

(* Most encoded ints (tags, counts, node ids, small sequence numbers)
   fit one byte, so that case skips the loop. Every byte written is
   masked below 0x100, hence [unsafe_chr]. *)
let add buf n =
  let u = (n lsl 1) lxor (n asr 62) in
  if u lsr 7 = 0 then Buffer.add_char buf (Char.unsafe_chr u)
  else begin
    let u = ref u in
    while !u lsr 7 <> 0 do
      Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!u land 0x7f)));
      u := !u lsr 7
    done;
    Buffer.add_char buf (Char.unsafe_chr !u)
  end

(* Decode the varint at [c.pos] and advance [c.pos] past it. On
   [Malformed], [c.pos] is unchanged. *)
let read c =
  let s = c.s in
  let p = ref c.pos and acc = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    if !shift >= 7 * max_bytes then raise (Malformed Overlong);
    if !p >= String.length s then raise (Malformed Truncated);
    let b = Char.code (String.unsafe_get s !p) in
    incr p;
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then cont := false
  done;
  c.pos <- !p;
  (!acc lsr 1) lxor - (!acc land 1)
