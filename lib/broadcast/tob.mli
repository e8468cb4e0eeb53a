(** Total-order broadcast service (pure state machine).

    The paper's core verified artifact: participating processes deliver
    the same messages in the same order (uniform total order, no creation,
    no duplication). Built modularly over a consensus core — instantiate
    {!Make} with {!Consensus.Paxos} or {!Consensus.Twothird_multi}.

    Messages submitted by clients are accumulated and proposed as batches
    (the paper's batching optimization); decided batches are unfolded into
    individually sequence-numbered deliveries, deduplicated by
    (origin, id) against {!Seen}. Each member keeps one interval of
    consecutive ids per origin plus the ids that arrived out of order, so
    dedup memory is O(origins + out-of-order ids), not O(history). The
    delivered sequence itself is not retained: it is the stream of
    [Notify] actions.

    A member keeps up to [window] batches in flight through consensus at
    once (default 1 — the paper's one-outstanding-batch regime);
    pipelining is safe because both consensus cores decide per-slot and
    release decisions strictly in slot order, so total order is fixed by
    slot assignment regardless of how many proposals any member has
    outstanding. *)

type loc = int

type entry = { origin : loc; id : int; payload : string }
(** One broadcast message: submitting client, client-local id, payload. *)

type batch = entry list
(** The unit of consensus. *)

type deliver = { seqno : int; entry : entry }
(** A delivery notification: global sequence number plus the message. *)

(** The set of delivered (origin, id) keys, as a persistent value. Per
    origin it holds an interval [\[lo, hi)] of consecutive ids plus the
    ids outside it; an id equal to [hi] extends the interval and absorbs
    any held ids that became contiguous. Membership is exactly that of a
    set of pairs for any int ids (negative, sparse, out of order or
    repeated). *)
module Seen : sig
  type t

  val empty : t
  val mem : loc -> int -> t -> bool
  val add : loc -> int -> t -> t

  val explicit : t -> int
  (** Ids held individually, outside their origin's interval, summed over
      origins: 0 while every origin's ids arrive in order. *)
end

module Make (C : Consensus.Consensus_intf.S) : sig
  type msg =
    | Broadcast of entry  (** Client → service member. *)
    | Core of batch C.msg  (** Service member ↔ service member. *)

  type action =
    | Send of loc * msg
    | Notify of loc * deliver  (** Delivery notification to a subscriber. *)
    | Set_timer of float

  type t

  val create :
    ?batch_cap:int ->
    ?window:int ->
    ?suspect_timeout:float ->
    self:loc ->
    members:loc list ->
    subscribers:loc list ->
    unit ->
    t
  (** [subscribers] receive a [Notify] for every delivered message; an
      entry whose (origin, id) was delivered before is dropped, and the
      dedup state grows only with origins and out-of-order ids.
      [batch_cap] bounds entries per proposal (default 64).
      [window] is the number of batches this member may have in flight
      through consensus simultaneously (default 1; clamped to [>= 1]).
      [suspect_timeout] is the no-progress interval after which the member
      prods the consensus core (leader re-election / retransmission;
      default 0.5 s). *)

  val start : t -> now:float -> t * action list
  val recv : t -> now:float -> src:loc -> msg -> t * action list
  val tick : t -> now:float -> t * action list

  val delivered : t -> int
  (** Number of messages this member has delivered so far. *)
end
