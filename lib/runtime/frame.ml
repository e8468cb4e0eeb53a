(* Wire framing for the socket runtime.

   {!Loop} nodes exchange length-prefixed frames: a 5-byte header — 4-byte
   big-endian payload length ∥ 1-byte source node id — followed by the
   codec-encoded payload. The one-byte source id caps a deployment at
   {!max_src}+1 wire-visible nodes, far above anything the local runtime
   hosts, and shaves the per-message overhead the old 8-byte header paid.

   The module's working type, {!buf}, is a growable byte window with a
   head offset: appends land at the tail with no per-frame allocation,
   reads drain from the head without the per-frame [Bytes.blit]
   compaction the original runtime did (O(n²) under batching). The same
   type backs inbound reassembly buffers, per-connection send scratch,
   and the {!Outbox} accumulation buffers — encoded frames are written
   once and flushed straight from the buffer, so the data plane adds a
   single copy (codec output into the buffer) between handler and
   syscall. *)

let header = 5
let max_frame = 64 * 1024 * 1024
let max_src = 0xFF

type buf = {
  mutable b : Bytes.t;
  mutable head : int;  (* offset of the first live byte *)
  mutable len : int;  (* live bytes starting at [head] *)
}

let create cap = { b = Bytes.create (Stdlib.max cap header); head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let reset t =
  t.head <- 0;
  t.len <- 0

(* Make room for [extra] bytes at the tail: slide the live window back to
   offset 0 when that frees enough space, grow (doubling) otherwise. *)
let reserve t extra =
  let cap = Bytes.length t.b in
  if t.head + t.len + extra > cap then
    if t.len + extra <= cap then begin
      Bytes.blit t.b t.head t.b 0 t.len;
      t.head <- 0
    end
    else begin
      let nb = Bytes.create (Stdlib.max (2 * cap) (t.len + extra)) in
      Bytes.blit t.b t.head nb 0 t.len;
      t.b <- nb;
      t.head <- 0
    end

(* Append one encoded frame at the tail. *)
let append t ~src ~payload =
  if src < 0 || src > max_src then
    Sim.Invariant.fail "frame"
      "source id %d does not fit the one-byte wire header" src;
  let plen = String.length payload in
  if plen > max_frame then
    Sim.Invariant.fail "frame" "payload of %d bytes exceeds max frame size"
      plen;
  reserve t (header + plen);
  let tail = t.head + t.len in
  Bytes.set_int32_be t.b tail (Int32.of_int plen);
  Bytes.set t.b (tail + 4) (Char.chr src);
  Bytes.blit_string payload 0 t.b (tail + header) plen;
  t.len <- t.len + header + plen

(* Parse every complete frame at the head, invoking [frame ~src payload]
   for each; a malformed length invokes [bad] and discards the buffer
   (the stream has lost sync). [stop] is polled between frames so a
   consumer can park mid-drain and resume later — unparsed frames stay
   buffered. *)
let drain ?(stop = fun () -> false) t ~frame ~bad =
  let continue = ref true in
  while !continue do
    if stop () || t.len < header then continue := false
    else begin
      let plen = Int32.to_int (Bytes.get_int32_be t.b t.head) in
      let src = Char.code (Bytes.get t.b (t.head + 4)) in
      if plen < 0 || plen > max_frame then begin
        bad plen;
        reset t;
        continue := false
      end
      else if t.len < header + plen then continue := false
      else begin
        let payload = Bytes.sub_string t.b (t.head + header) plen in
        t.head <- t.head + header + plen;
        t.len <- t.len - header - plen;
        frame ~src payload
      end
    end
  done;
  if t.len = 0 then t.head <- 0

(* One [Unix.read] into the tail. [`Data 0] is a retryable non-event
   (EAGAIN on a non-blocking socket). *)
let read_into t fd =
  reserve t 65536;
  match
    Unix.read fd t.b (t.head + t.len) (Bytes.length t.b - t.head - t.len)
  with
  | 0 -> `Closed
  | n ->
      t.len <- t.len + n;
      `Data n
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      `Closed
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Data 0
