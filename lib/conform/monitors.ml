(* Feeding a recorded trace to the lib/check invariant monitors.

   The model checker enforces its obligations against simulated
   schedules; this module gives socket-runtime executions the same
   obligations by reconstructing monitor observations from the trace:

   - TOB total order, gap-freedom, no-duplication — from [Deliver]
     events (gap-freedom and no-dup only for crash-free traces: a
     restarted replica legitimately re-delivers a group-commit-lost
     suffix, which re-observes (origin, id) pairs);
   - SMR agreement — every fingerprint checkpoint recorded at total-order
     position s must carry the same hash, across nodes and across
     incarnations of one node (deterministic re-execution);
   - durability no-loss — the set of positions a node applied, across
     all its incarnations, has no holes below its maximum;
   - cross-shard atomicity — from delivered 2PC decision records, when
     the trace contains any.

   Sharded traces (detected by prepare/decision payloads or a "shards"
   meta entry > 1) interleave the per-shard total orders in one trace,
   so the seqno-keyed TOB and agreement monitors are skipped there; the
   atomicity monitor takes over. *)

module Monitor = Check.Monitor
module Tob = Broadcast.Tob

type report = {
  m_observations : int;
  m_monitors : string list;
  m_violations : (string * string) list;  (* monitor name, message *)
}

let ok r = r.m_violations = []

let pp_report ppf r =
  Format.fprintf ppf "%d observations through %d monitors (%s)" r.m_observations
    (List.length r.m_monitors)
    (String.concat ", " r.m_monitors);
  if ok r then Format.fprintf ppf "@.invariants hold"
  else
    List.iter
      (fun (n, m) -> Format.fprintf ppf "@.VIOLATION [%s]: %s" n m)
      r.m_violations

(* Checkpoint agreement: same total-order position, same fingerprint. *)
let agreement () : (int * int * int) Monitor.t =
  let seen : (int, int * int) Hashtbl.t = Hashtbl.create 256 in
  Monitor.make ~name:"conform-agreement" (fun fail (node, seqno, hash) ->
      match Hashtbl.find_opt seen seqno with
      | None -> Hashtbl.replace seen seqno (node, hash)
      | Some (n0, h0) ->
          if h0 <> hash then
            fail
              (Printf.sprintf
                 "fingerprint disagreement at seqno %d: node %d has %x, node \
                  %d had %x"
                 seqno node hash n0 h0))

(* Durability no-loss: across every incarnation of a node, the applied
   positions are contiguous up to its maximum — a hole is an entry that
   was applied before a crash and never recovered. *)
let no_loss () : (int * int) Monitor.t =
  let by_node : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  Monitor.make ~name:"conform-no-loss"
    ~finish:(fun () ->
      Hashtbl.fold
        (fun node seqs acc ->
          match acc with
          | Some _ -> acc
          | None ->
              let lo = Hashtbl.fold (fun s () m -> min s m) seqs max_int in
              let hi = Hashtbl.fold (fun s () m -> max s m) seqs min_int in
              let missing = ref [] in
              for s = lo to hi do
                if not (Hashtbl.mem seqs s) then missing := s :: !missing
              done;
              if !missing = [] then None
              else
                Some
                  (Printf.sprintf
                     "node %d lost applied entries: missing seqnos %s below \
                      its maximum %d"
                     node
                     (String.concat ","
                        (List.map string_of_int (List.rev !missing)))
                     hi))
        by_node None)
    (fun _fail (node, seqno) ->
      let seqs =
        match Hashtbl.find_opt by_node node with
        | Some s -> s
        | None ->
            let s = Hashtbl.create 256 in
            Hashtbl.replace by_node node s;
            s
      in
      Hashtbl.replace seqs seqno ())

let is_sharded ~meta events =
  (match List.assoc_opt "shards" meta with
  | Some s -> ( match int_of_string_opt s with Some n -> n > 1 | None -> false)
  | None -> false)
  || List.exists
       (fun (e : Event.t) ->
         match e.Event.kind with
         | Event.Deliver { payload; _ } ->
             payload <> "" && (payload.[0] = 'P' || payload.[0] = 'D')
         | _ -> false)
       events

let check ?(meta = []) (events : Event.t list) : report =
  let sharded = is_sharded ~meta events in
  let has_restart =
    List.exists
      (fun (e : Event.t) ->
        match e.Event.kind with Event.Restart -> true | _ -> false)
      events
  in
  let tob_monitors =
    if sharded then []
    else
      Monitor.tob_total_order ()
      :: (if has_restart then []
          else [ Monitor.tob_gap_free (); Monitor.tob_no_dup () ])
  in
  let agree = if sharded then None else Some (agreement ()) in
  let noloss = if sharded then None else Some (no_loss ()) in
  let xatomic = if sharded then Some (Monitor.xshard_atomicity ()) else None in
  let observations = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Deliver { seqno; origin; id; payload } ->
          incr observations;
          let d = { Tob.seqno; entry = { Tob.origin; id; payload } } in
          List.iter (fun m -> Monitor.observe m (e.Event.node, d)) tob_monitors;
          (match noloss with
          | Some m -> Monitor.observe m (e.Event.node, seqno)
          | None -> ());
          (match (xatomic, Shadowdb.System.decode_payload payload) with
          | Some m, Shadowdb.System.P_decision (shard, commit, dtxn) ->
              Monitor.observe m
                {
                  Monitor.xnode = e.Event.node;
                  xshard = shard;
                  xclient = dtxn.Shadowdb.Txn.client;
                  xseq = dtxn.Shadowdb.Txn.seq;
                  xcommit = commit;
                  xkeys = [];
                }
          | _ -> ())
      | Event.Checkpoint { seqno; hash; _ } -> (
          incr observations;
          match agree with
          | Some m -> Monitor.observe m (e.Event.node, seqno, hash)
          | None -> ())
      | _ -> ())
    events;
  let close (type o) (m : o Monitor.t) =
    Monitor.finish m;
    ( Monitor.name m,
      match Monitor.violation m with Some v -> Some v | None -> None )
  in
  let results =
    List.map close tob_monitors
    @ (match agree with Some m -> [ close m ] | None -> [])
    @ (match noloss with Some m -> [ close m ] | None -> [])
    @ match xatomic with Some m -> [ close m ] | None -> []
  in
  {
    m_observations = !observations;
    m_monitors = List.map fst results;
    m_violations =
      List.filter_map
        (fun (n, v) -> match v with Some m -> Some (n, m) | None -> None)
        results;
  }
