module M = Paxos_msg
module Slot_map = Map.Make (Int)

type 'c action = Send of M.loc * 'c M.t | Perform of { s : int; c : 'c }

type 'c input = Request of 'c | Msg of 'c M.t

type 'c t = {
  self : M.loc;
  leaders : M.loc list;
  slot_in : int;
  slot_out : int;
  requests : 'c list;  (* queued commands, oldest first *)
  proposals : 'c Slot_map.t;
  decisions : 'c Slot_map.t;
}

let window = 5

let create ~self ~leaders =
  {
    self;
    leaders;
    slot_in = 0;
    slot_out = 0;
    requests = [];
    proposals = Slot_map.empty;
    decisions = Slot_map.empty;
  }

let slot_out t = t.slot_out

let decisions t = Slot_map.bindings t.decisions

(* Assign queued requests to free slots within the window. *)
let rec propose t acts =
  if t.slot_in >= t.slot_out + window then (t, List.rev acts)
  else if Slot_map.mem t.slot_in t.decisions then
    propose { t with slot_in = t.slot_in + 1 } acts
  else
    match t.requests with
    | [] -> (t, List.rev acts)
    | c :: rest ->
        let sends =
          List.rev_map
            (fun l -> Send (l, M.Propose { s = t.slot_in; c }))
            t.leaders
        in
        propose
          {
            t with
            requests = rest;
            proposals = Slot_map.add t.slot_in c t.proposals;
            slot_in = t.slot_in + 1;
          }
          (sends @ acts)

(* Perform decided commands in slot order; a proposal of ours that lost
   its slot to a different command goes back on the request queue.
   [acts] accumulates in reverse. *)
let rec perform t acts =
  match Slot_map.find_opt t.slot_out t.decisions with
  | None -> (t, List.rev acts)
  | Some c ->
      let t, acts =
        match Slot_map.find_opt t.slot_out t.proposals with
        | Some mine when mine <> c ->
            ({ t with requests = t.requests @ [ mine ] }, acts)
        | Some _ | None -> (t, acts)
      in
      let t =
        {
          t with
          proposals = Slot_map.remove t.slot_out t.proposals;
          slot_out = t.slot_out + 1;
        }
      in
      perform t (Perform { s = t.slot_out - 1; c } :: acts)

let step t input =
  match input with
  | Request c ->
      let t = { t with requests = t.requests @ [ c ] } in
      propose t []
  | Msg (M.Decision { s; c }) ->
      if Slot_map.mem s t.decisions then (t, [])
      else
        let t = { t with decisions = Slot_map.add s c t.decisions } in
        let t, performs = perform t [] in
        let t, proposes = propose t [] in
        (t, performs @ proposes)
  | Msg (M.P1a _ | M.P1b _ | M.P2a _ | M.P2b _ | M.Propose _) -> (t, [])
