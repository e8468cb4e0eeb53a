module M = Paxos_msg
module Slot_map = Map.Make (Int)
module Loc_set = Set.Make (Int)

type 'c action = Send of M.loc * 'c M.t | Set_timer of float

type 'c input = Start | Tick | Msg of 'c M.t

type 'c scout = { s_received : Loc_set.t; pvalues : 'c M.pvalue list }

type 'c commander = { c_received : Loc_set.t; pv : 'c M.pvalue }

type 'c t = {
  self : M.loc;
  acceptors : M.loc list;
  replicas : M.loc list;
  ballot : M.ballot;
  active : bool;
  proposals : 'c Slot_map.t;
  scout : 'c scout option;
  commanders : 'c commander Slot_map.t;
  backoff : float;
}

let initial_backoff = 0.05

let create ~self ~acceptors ~replicas =
  {
    self;
    acceptors;
    replicas;
    ballot = M.ballot_zero self;
    active = false;
    proposals = Slot_map.empty;
    scout = None;
    commanders = Slot_map.empty;
    backoff = initial_backoff;
  }

let is_active t = t.active

let ballot t = t.ballot

let majority t = (List.length t.acceptors / 2) + 1

let broadcast_acceptors t msg = List.map (fun a -> Send (a, msg)) t.acceptors

let spawn_scout t =
  let t = { t with scout = Some { s_received = Loc_set.empty; pvalues = [] } } in
  (t, broadcast_acceptors t (M.P1a { src = t.self; b = t.ballot }))

let spawn_commander t s c =
  let pv = { M.b = t.ballot; s; c } in
  let t =
    { t with commanders = Slot_map.add s { c_received = Loc_set.empty; pv } t.commanders }
  in
  (t, broadcast_acceptors t (M.P2a { src = t.self; pv }))

(* For each slot, the command of the highest-ballot accepted pvalue. *)
let pmax pvalues =
  List.fold_left
    (fun acc (pv : 'c M.pvalue) ->
      match Slot_map.find_opt pv.M.s acc with
      | Some (prev : 'c M.pvalue) when M.ballot_compare prev.M.b pv.M.b >= 0 ->
          acc
      | Some _ | None -> Slot_map.add pv.M.s pv acc)
    Slot_map.empty pvalues

let adopted t =
  let pvalues =
    match t.scout with Some s -> s.pvalues | None -> []
  in
  let winners = pmax pvalues in
  (* proposals ◁ pmax: accepted commands override our own proposals. *)
  let proposals =
    Slot_map.fold
      (fun s (pv : 'c M.pvalue) props -> Slot_map.add s pv.M.c props)
      winners t.proposals
  in
  let t =
    { t with scout = None; active = true; proposals; backoff = initial_backoff }
  in
  let t, rev_acts =
    Slot_map.fold
      (fun s c (t, rev_acts) ->
        let t, acts = spawn_commander t s c in
        (t, List.rev_append acts rev_acts))
      t.proposals (t, [])
  in
  (t, List.rev rev_acts)

let preempted t (b' : M.ballot) =
  let t =
    {
      t with
      ballot = M.ballot_succ b' t.self;
      active = false;
      scout = None;
      commanders = Slot_map.empty;
      backoff = t.backoff *. 2.0;
    }
  in
  (t, [ Set_timer t.backoff ])

let step t input =
  match input with
  | Start -> spawn_scout t
  | Tick ->
      if (not t.active) && t.scout = None then spawn_scout t else (t, [])
  | Msg (M.Propose { s; c }) ->
      if Slot_map.mem s t.proposals then (t, [])
      else
        let t = { t with proposals = Slot_map.add s c t.proposals } in
        if t.active then spawn_commander t s c else (t, [])
  | Msg (M.P1b { src; b; accepted }) -> (
      if M.ballot_compare b t.ballot > 0 then preempted t b
      else
        match t.scout with
        | Some sc when M.ballot_compare b t.ballot = 0 ->
            let sc =
              {
                s_received = Loc_set.add src sc.s_received;
                pvalues = accepted @ sc.pvalues;
              }
            in
            if Loc_set.cardinal sc.s_received >= majority t then
              adopted { t with scout = Some sc }
            else ({ t with scout = Some sc }, [])
        | Some _ | None -> (t, []))
  | Msg (M.P2b { src; b; s }) -> (
      if M.ballot_compare b t.ballot > 0 then preempted t b
      else
        match Slot_map.find_opt s t.commanders with
        | Some cmd when M.ballot_compare b cmd.pv.M.b = 0 ->
            let cmd = { cmd with c_received = Loc_set.add src cmd.c_received } in
            if Loc_set.cardinal cmd.c_received >= majority t then
              let t = { t with commanders = Slot_map.remove s t.commanders } in
              ( t,
                List.map
                  (fun r -> Send (r, M.Decision { s; c = cmd.pv.M.c }))
                  t.replicas )
            else
              ({ t with commanders = Slot_map.add s cmd t.commanders }, [])
        | Some _ | None -> (t, []))
  | Msg (M.P1a _ | M.P2a _ | M.Decision _) -> (t, [])
