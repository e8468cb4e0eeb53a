(* Outside-in tracing for the traced run.

   Every layer is timed by wrapping a closure the public API hands to the
   caller (codec, registry procs, durable backend, node handlers, the
   checker's scenario surface); nothing inside the program is edited.
   Spans nest on one stack: a span's self time is its duration minus
   the time of the spans it encloses, so the self times of all layers
   sum exactly to the time covered by outermost spans, and the wall time
   left over is what no wrapper explains (select, dispatch, framing,
   the explorer's own bookkeeping).

   All wrapped closures run on one thread at a time (the reactor thread
   during a socket run, the main thread during exploration), so the
   state below is plain module-level mutable data. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

type layer =
  | Smr  (** [smrN] node handlers: TOB, consensus, SMR apply. *)
  | Client  (** client node handlers. *)
  | Enc  (** wire codec encode. *)
  | Dec  (** wire codec decode. *)
  | Storage  (** registry procedures (SQL execute). *)
  | Wal_append  (** durable backend [log_append]. *)
  | Wal_sync  (** durable backend [log_sync]. *)
  | Make  (** checker [Scenario.make]. *)
  | Step  (** checker [step]: one simulator event. *)
  | Fingerprint  (** checker state fingerprint. *)
  | Monitor  (** checker [check] and [finalize]. *)

let layers =
  [ Smr; Client; Enc; Dec; Storage; Wal_append; Wal_sync; Make; Step;
    Fingerprint; Monitor ]

let index = function
  | Smr -> 0
  | Client -> 1
  | Enc -> 2
  | Dec -> 3
  | Storage -> 4
  | Wal_append -> 5
  | Wal_sync -> 6
  | Make -> 7
  | Step -> 8
  | Fingerprint -> 9
  | Monitor -> 10

let n_layers = List.length layers
let self_ns = Array.make n_layers 0
let calls = Array.make n_layers 0

(* Time covered by outermost spans. *)
let top_ns = ref 0

let max_depth = 64
let starts = Array.make max_depth 0
let child_ns = Array.make max_depth 0
let depth = ref 0

let reset () =
  Array.fill self_ns 0 n_layers 0;
  Array.fill calls 0 n_layers 0;
  top_ns := 0

let finish layer d =
  let dur = now_ns () - starts.(d) in
  depth := d;
  let i = index layer in
  self_ns.(i) <- self_ns.(i) + dur - child_ns.(d);
  calls.(i) <- calls.(i) + 1;
  if d = 0 then top_ns := !top_ns + dur
  else child_ns.(d - 1) <- child_ns.(d - 1) + dur;
  dur

(* [timed layer f] runs [f ()] as a span of [layer] and returns its
   result with the span's duration in ns. *)
let timed layer f =
  let d = !depth in
  starts.(d) <- now_ns ();
  child_ns.(d) <- 0;
  depth := d + 1;
  match f () with
  | v -> (v, finish layer d)
  | exception e ->
      ignore (finish layer d);
      raise e

let span layer f = fst (timed layer f)
let self_s layer = float_of_int self_ns.(index layer) *. 1e-9
let calls_of layer = calls.(index layer)
let total_self_ns () = Array.fold_left ( + ) 0 self_ns
