(* The on-disk trace format.

   Same framing discipline as codec v2 (lib/shadowdb/codec.ml): zigzag
   LEB128 varints for every integer, length-prefixed strings, one tag
   byte per event kind, floats as 8-byte little-endian IEEE bits. The
   decoder is total and paranoid: every read is bounds-checked, varints
   reject overlong encodings, counts reject negatives, and a buffer with
   trailing bytes after the declared event count is corrupt — so any
   truncation or bit-flip of a valid trace fails to decode rather than
   decoding to a different trace.

   Layout:  magic "SDTR1" | meta count | (key, value)* | event count |
            (node, step, at, tag, fields)*                             *)

let magic = "SDTR1"

(* -------------------------------- encode ------------------------------ *)

let add_varint = Varint.add

let add_string b s =
  add_varint b (String.length s);
  Buffer.add_string b s

let add_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let add_event b (e : Event.t) =
  add_varint b e.Event.node;
  add_varint b e.Event.step;
  add_float b e.Event.at;
  match e.Event.kind with
  | Event.Init -> Buffer.add_char b 'I'
  | Event.Recv { src; bytes } ->
      Buffer.add_char b 'R';
      add_varint b src;
      add_string b bytes
  | Event.Timer { id; tag } ->
      Buffer.add_char b 'T';
      add_varint b id;
      add_string b tag
  | Event.Send { dst; bytes } ->
      Buffer.add_char b 'S';
      add_varint b dst;
      add_string b bytes
  | Event.Deliver { seqno; origin; id; payload } ->
      Buffer.add_char b 'D';
      add_varint b seqno;
      add_varint b origin;
      add_varint b id;
      add_string b payload
  | Event.Checkpoint { gseq; seqno; hash } ->
      Buffer.add_char b 'C';
      add_varint b gseq;
      add_varint b seqno;
      add_varint b hash
  | Event.Crash -> Buffer.add_char b 'X'
  | Event.Restart -> Buffer.add_char b 'B'

let encode ~meta events =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  add_varint b (List.length meta);
  List.iter
    (fun (k, v) ->
      add_string b k;
      add_string b v)
    meta;
  add_varint b (List.length events);
  List.iter (add_event b) events;
  Buffer.contents b

(* -------------------------------- decode ------------------------------ *)

exception Corrupt of string

let fail fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let get_varint s pos =
  let c = { Varint.s; pos } in
  match Varint.read c with
  | v -> (v, c.pos)
  | exception Varint.Malformed Varint.Truncated ->
      fail "varint truncated at %d" pos
  | exception Varint.Malformed Varint.Overlong ->
      fail "overlong varint at %d" pos

let get_string s pos =
  let n, pos = get_varint s pos in
  if n < 0 then fail "negative string length at %d" pos;
  if pos + n > String.length s then fail "string truncated at %d" pos;
  (String.sub s pos n, pos + n)

let get_float s pos =
  if pos + 8 > String.length s then fail "float truncated at %d" pos;
  (Int64.float_of_bits (String.get_int64_le s pos), pos + 8)

let get_event s pos =
  let node, pos = get_varint s pos in
  let step, pos = get_varint s pos in
  let at, pos = get_float s pos in
  if pos >= String.length s then fail "event tag truncated at %d" pos;
  let tag = s.[pos] in
  let pos = pos + 1 in
  let kind, pos =
    match tag with
    | 'I' -> (Event.Init, pos)
    | 'R' ->
        let src, pos = get_varint s pos in
        let bytes, pos = get_string s pos in
        (Event.Recv { src; bytes }, pos)
    | 'T' ->
        let id, pos = get_varint s pos in
        let tag, pos = get_string s pos in
        (Event.Timer { id; tag }, pos)
    | 'S' ->
        let dst, pos = get_varint s pos in
        let bytes, pos = get_string s pos in
        (Event.Send { dst; bytes }, pos)
    | 'D' ->
        let seqno, pos = get_varint s pos in
        let origin, pos = get_varint s pos in
        let id, pos = get_varint s pos in
        let payload, pos = get_string s pos in
        (Event.Deliver { seqno; origin; id; payload }, pos)
    | 'C' ->
        let gseq, pos = get_varint s pos in
        let seqno, pos = get_varint s pos in
        let hash, pos = get_varint s pos in
        (Event.Checkpoint { gseq; seqno; hash }, pos)
    | 'X' -> (Event.Crash, pos)
    | 'B' -> (Event.Restart, pos)
    | c -> fail "unknown event tag %C at %d" c (pos - 1)
  in
  ({ Event.node; step; at; kind }, pos)

let decode s =
  try
    if String.length s < String.length magic then fail "missing magic";
    if String.sub s 0 (String.length magic) <> magic then fail "bad magic";
    let pos = String.length magic in
    let nmeta, pos = get_varint s pos in
    if nmeta < 0 then fail "negative meta count";
    let rec meta_loop n pos acc =
      if n = 0 then (List.rev acc, pos)
      else
        let k, pos = get_string s pos in
        let v, pos = get_string s pos in
        meta_loop (n - 1) pos ((k, v) :: acc)
    in
    let meta, pos = meta_loop nmeta pos [] in
    let nev, pos = get_varint s pos in
    if nev < 0 then fail "negative event count";
    let rec ev_loop n pos acc =
      if n = 0 then (List.rev acc, pos)
      else
        let e, pos = get_event s pos in
        ev_loop (n - 1) pos (e :: acc)
    in
    let events, pos = ev_loop nev pos [] in
    if pos <> String.length s then fail "trailing bytes at %d" pos;
    Ok (meta, events)
  with Corrupt m -> Error m

(* --------------------------------- files ------------------------------ *)

let save ~path ~meta events =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (encode ~meta events))

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> decode s
  | exception Sys_error m -> Error m
