(* WAL record framing (codec-v2 style, self-delimiting, checksummed).

   Each record is framed as

     [4-byte BE body length] [4-byte BE CRC-32 of body] [body]

   with body = varint idx ‖ varint aux ‖ varint hash ‖ varint payload
   length ‖ payload. Varints are the shared zigzag LEB128 encoding
   ({!Varint}), so negative sentinels and full-range state hashes
   round-trip. [idx] is the record's position in the replicated total
   order, [aux] a caller-owned companion counter (ShadowDB stores the
   replica's delivered-entry count), [hash] the state fingerprint after
   applying the record, [payload] opaque bytes (this layer never
   interprets them, which keeps the dependency direction durable ←
   shadowdb acyclic).

   [scan] walks a raw log image and stops at the first frame that is
   short, oversized, or fails its CRC: everything before is the valid
   prefix, everything after is a torn tail for recovery to truncate.
   Because the length prefix is checked against the remaining bytes and
   the CRC covers the whole body, no proper prefix of a record is ever
   accepted (the qcheck suite proves this for every cut point). *)

type record = { idx : int; aux : int; hash : int; payload : string }

let max_body = 256 * 1024 * 1024

let encode_body r =
  let buf = Buffer.create (String.length r.payload + 24) in
  Varint.add buf r.idx;
  Varint.add buf r.aux;
  Varint.add buf r.hash;
  Varint.add buf (String.length r.payload);
  Buffer.add_string buf r.payload;
  Buffer.contents buf

(* None on a truncated or overlong varint, or a payload length that does
   not end exactly at the end of the body. *)
let decode_body s =
  let c = { Varint.s; pos = 0 } in
  match
    let idx = Varint.read c in
    let aux = Varint.read c in
    let hash = Varint.read c in
    (idx, aux, hash, Varint.read c)
  with
  | idx, aux, hash, plen when plen >= 0 && c.pos + plen = String.length s ->
      Some { idx; aux; hash; payload = String.sub s c.pos plen }
  | _ -> None
  | exception Varint.Malformed _ -> None

let encode_record r =
  let body = encode_body r in
  let len = String.length body in
  let buf = Buffer.create (len + 8) in
  Buffer.add_uint8 buf ((len lsr 24) land 0xff);
  Buffer.add_uint8 buf ((len lsr 16) land 0xff);
  Buffer.add_uint8 buf ((len lsr 8) land 0xff);
  Buffer.add_uint8 buf (len land 0xff);
  let crc = Crc32.string body in
  Buffer.add_uint8 buf ((crc lsr 24) land 0xff);
  Buffer.add_uint8 buf ((crc lsr 16) land 0xff);
  Buffer.add_uint8 buf ((crc lsr 8) land 0xff);
  Buffer.add_uint8 buf (crc land 0xff);
  Buffer.add_string buf body;
  Buffer.contents buf

let be32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

type scan_result = {
  records : record list;  (* oldest first *)
  valid_bytes : int;  (* log prefix covered by accepted records *)
  torn_bytes : int;  (* trailing bytes rejected (short/corrupt frame) *)
}

let scan s =
  let n = String.length s in
  let records = ref [] in
  let pos = ref 0 in
  let stop = ref false in
  while not !stop do
    if n - !pos < 8 then stop := true
    else begin
      let len = be32 s !pos in
      if len < 0 || len > max_body || n - !pos - 8 < len then stop := true
      else begin
        let crc_stored = be32 s (!pos + 4) in
        let crc = Crc32.update 0 s ~pos:(!pos + 8) ~len in
        if crc <> crc_stored then stop := true
        else
          match decode_body (String.sub s (!pos + 8) len) with
          | None -> stop := true
          | Some r ->
              records := r :: !records;
              pos := !pos + 8 + len
      end
    end
  done;
  { records = List.rev !records; valid_bytes = !pos; torn_bytes = n - !pos }
