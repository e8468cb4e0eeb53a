module M = Paxos_msg

type 'c msg = 'c M.t

type 'c t = {
  self : Consensus_intf.loc;
  members : Consensus_intf.loc list;
  acceptor : 'c Acceptor.t;
  leader : 'c Leader.t;
  replica : 'c Replica.t;
}

let name = "paxos-synod"

let create ~self ~members =
  {
    self;
    members;
    acceptor = Acceptor.create ~self;
    leader = Leader.create ~self ~acceptors:members ~replicas:members;
    replica = Replica.create ~self ~leaders:members;
  }

let leader_active t = Leader.is_active t.leader

(* Dispatch one message to the role(s) that own it; returns the new state,
   further (dst, msg) sends, and high-level actions. *)
let local t (m : 'c M.t) =
  match m with
  | M.P1a _ | M.P2a _ ->
      let acceptor, replies = Acceptor.step t.acceptor m in
      ({ t with acceptor }, replies, [])
  | M.P1b _ | M.P2b _ | M.Propose _ ->
      let leader, acts = Leader.step t.leader (Leader.Msg m) in
      let sends, timers =
        List.partition_map
          (function
            | Leader.Send (dst, m) -> Left (dst, m)
            | Leader.Set_timer d -> Right (Consensus_intf.Set_timer d))
          acts
      in
      ({ t with leader }, sends, timers)
  | M.Decision _ ->
      let replica, acts = Replica.step t.replica (Replica.Msg m) in
      let sends, delivers =
        List.partition_map
          (function
            | Replica.Send (dst, m) -> Left (dst, m)
            | Replica.Perform { s; c } ->
                Right (Consensus_intf.Deliver { s; c }))
          acts
      in
      ({ t with replica }, sends, delivers)

(* Run local deliveries to a fixed point: messages addressed to self are
   processed in place (the co-located roles short-circuit the network).
   [pending] is a FIFO queue kept as a front list and a reversed back
   list, so appending a step's sends costs their length, not the queue's. *)
let process t pending =
  let rec go t front back acts =
    match front with
    | [] ->
        if back = [] then (t, List.rev acts)
        else go t (List.rev back) [] acts
    | (dst, m) :: rest ->
        if dst = t.self then begin
          let t, sends, high = local t m in
          go t rest (List.rev_append sends back) (List.rev_append high acts)
        end
        else go t rest back (Consensus_intf.Send (dst, m) :: acts)
  in
  go t pending [] []

let lift_leader t (leader, lacts) =
  let t = { t with leader } in
  let pending, high =
    List.partition_map
      (function
        | Leader.Send (dst, m) -> Left (dst, m)
        | Leader.Set_timer d -> Right (Consensus_intf.Set_timer d))
      lacts
  in
  let t, acts = process t pending in
  (t, high @ acts)

let lift_replica t (replica, racts) =
  let t = { t with replica } in
  let pending, high =
    List.partition_map
      (function
        | Replica.Send (dst, m) -> Left (dst, m)
        | Replica.Perform { s; c } -> Right (Consensus_intf.Deliver { s; c }))
      racts
  in
  let t, acts = process t pending in
  (t, high @ acts)

let start t =
  if t.self = List.fold_left min max_int t.members then
    lift_leader t (Leader.step t.leader Leader.Start)
  else (t, [])

let propose t c = lift_replica t (Replica.step t.replica (Replica.Request c))

let recv t ~src:_ m = process t [ (t.self, m) ]

let tick t = lift_leader t (Leader.step t.leader Leader.Tick)
