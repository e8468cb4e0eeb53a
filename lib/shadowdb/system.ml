(* ShadowDB: replicated databases over a verified total-order broadcast.

   [Make] is parameterized by the consensus core of the broadcast service
   (Paxos in the paper's evaluation; TwoThird also works). It provides the
   two replication protocols of Sec. III:

   - PBR (primary-backup): a hand-coded normal case — the primary
     executes, forwards to the backups, waits for all acknowledgements and
     answers the client — with TOB-ordered reconfiguration, election by
     largest executed sequence number, and transaction-cache or
     full-snapshot state transfer.

   - SMR (state-machine replication): clients broadcast transactions
     through the TOB; every active replica executes in delivery order and
     answers; the client keeps the first answer. Each replica co-hosts its
     broadcast-service member (the paper co-locates databases with the
     Paxos processes, and the shared CPU is what caps SMR throughput in
     Fig. 9(a)). *)

module R = Runtime
module Database = Storage.Database
module Value = Storage.Value
module Tob = Broadcast.Tob

type loc = int

let tob_payload_txn txn = "T" ^ Codec.encode_txn txn

let tob_payload_reconfig cfg ~last_seq ~proposer =
  "R" ^ Codec.encode_reconfig cfg ~last_seq ~proposer

let tob_payload_prepare ~coord ~shard ~participants ~ptxn =
  "P" ^ Codec.encode_prepare ~coord ~shard ~participants ~ptxn

let tob_payload_decision ~shard ~commit ~dtxn =
  "D" ^ Codec.encode_decision ~shard ~commit ~dtxn

type decoded_payload =
  | P_txn of Txn.t
  | P_reconfig of Config.t * int * loc
  | P_prepare of loc * int * int list * Txn.t
      (* coordinator, shard, participants, sub-transaction *)
  | P_decision of int * bool * Txn.t  (* shard, commit?, sub-transaction *)
  | P_bytes of string

let decode_payload s =
  if s = "" then P_bytes s
  else
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'T' -> (
        match Codec.decode_txn body with
        | Ok t -> P_txn t
        | Error _ -> P_bytes s)
    | 'R' -> (
        match Codec.decode_reconfig body with
        | Ok (c, ls, pr) -> P_reconfig (c, ls, pr)
        | Error _ -> P_bytes s)
    | 'P' -> (
        match Codec.decode_prepare body with
        | Ok (coord, shard, parts, ptxn) ->
            P_prepare (coord, shard, parts, ptxn)
        | Error _ -> P_bytes s)
    | 'D' -> (
        match Codec.decode_decision body with
        | Ok (shard, commit, dtxn) -> P_decision (shard, commit, dtxn)
        | Error _ -> P_bytes s)
    | _ -> P_bytes s

type tuning = {
  hb_interval : float;
  detect_timeout : float;
  cache_cap : int;
  chunk_rows : int;
  exec_overhead : float;  (* fixed CPU per transaction besides DB work *)
  fwd_overhead : float;  (* primary-side per-backup forward/ack handling *)
}

let default_tuning =
  {
    hb_interval = 1.0;
    detect_timeout = 10.0;
    cache_cap = 20_000;
    chunk_rows = 700;
    exec_overhead = 2.0e-5;
    fwd_overhead = 4.5e-5;
  }

module Make (C : Consensus.Consensus_intf.S) = struct
  module Shell = Broadcast.Shell.Make (C)
  module TM = Shell.T

  type wire = Svc of TM.msg | Note of Tob.deliver | Db of Db_msg.t

  let send_db ctx dst m = R.send ctx ~size:(Db_msg.size m) dst (Db m)

  (* Wire format for the whole system: broadcast-service traffic, delivery
     notifications and database replication messages share one socket per
     link on the socket runtime. [enc_core]/[dec_core] serialize the
     consensus core's protocol messages — for Paxos over TOB batches use
     {!Codec.encode_core_paxos} / {!Codec.decode_core_paxos}. *)
  let wire_codec ~enc_core ~dec_core : wire R.codec =
    let enc = function
      | Svc (TM.Broadcast e) -> "B" ^ Codec.encode_entry e
      | Svc (TM.Core m) -> "C" ^ enc_core m
      | Note d -> "N" ^ Codec.encode_deliver d
      | Db m -> "D" ^ Codec.encode_db_msg m
    in
    let dec s =
      if s = "" then Error "empty wire message"
      else
        let body = String.sub s 1 (String.length s - 1) in
        match s.[0] with
        | 'B' -> (
            match Codec.decode_entry body with
            | Ok (e, "") -> Ok (Svc (TM.Broadcast e))
            | Ok _ -> Error "trailing bytes after entry"
            | Error e -> Error e)
        | 'C' -> Result.map (fun m -> Svc (TM.Core m)) (dec_core body)
        | 'N' -> Result.map (fun d -> Note d) (Codec.decode_deliver body)
        | 'D' -> Result.map (fun m -> Db m) (Codec.decode_db_msg body)
        | c -> Error (Printf.sprintf "bad wire tag %C" c)
    in
    { R.enc; dec }

  (* Replica registries back the [*_of] observers of a cluster handle.
     Node handlers fill them in — from the reactor thread, on the socket
     runtime — while the spawning thread reads them, so access is
     serialized by a mutex. *)
  module Registry = struct
    type 'a t = { mu : Mutex.t; tbl : (loc, 'a) Hashtbl.t }

    let create () = { mu = Mutex.create (); tbl = Hashtbl.create 8 }

    let locked t f =
      Mutex.lock t.mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

    let set t l r = locked t (fun () -> Hashtbl.replace t.tbl l r)

    (* [f] is caller code: without Fun.protect, a raising observer would
       leave the registry mutex held forever. *)
    let view t l f ~default =
      locked t (fun () ->
          match Hashtbl.find_opt t.tbl l with Some r -> f r | None -> default)
  end

  (* Bounded cache of recently executed transactions (for catch-up). *)
  module Cache = struct
    type t = { cap : int; mutable items : (int * Txn.t) list (* newest first *) }

    let create cap = { cap; items = [] }

    let push t gseq txn =
      t.items <- (gseq, txn) :: t.items;
      if List.length t.items > t.cap then
        t.items <- List.filteri (fun i _ -> i < t.cap) t.items

    (* Transactions with global number in (from, upto], oldest first;
       [None] if the cache no longer spans that range. *)
    let range t ~from ~upto =
      let hits =
        List.filter (fun (g, _) -> g > from && g <= upto) t.items
      in
      if List.length hits = upto - from then
        Some (List.sort (fun (a, _) (b, _) -> compare a b) hits)
      else None
  end

  (* ------------------------------------------------------------------ *)
  (* Primary-backup replication                                          *)
  (* ------------------------------------------------------------------ *)

  type pbr_cluster = {
    pbr_replicas : loc list;  (* actives first, then spares *)
    pbr_tob : loc list;
    pbr_initial_primary : loc;
    pbr_primary_of : loc -> loc;  (* current primary, per replica view *)
    pbr_cfg_of : loc -> int;  (* configuration seqno, per replica view *)
    pbr_gseq_of : loc -> int;
    pbr_hash_of : loc -> int;  (* database content hash (tests) *)
  }

  type replication_style = Primary_backup | Chain

  type pbr_replica = {
    style : replication_style;
    read_kinds : string list;
        (* Chain: transaction kinds served read-only at the tail *)
    p_self : loc;
    p_all : loc list;  (* every replica incl. spares, deployment order *)
    p_tob : loc list;
    db : Database.t;
    reg : Txn.registry;
    tun : tuning;
    mutable cfg : Config.t;
    mutable primary : loc;
    mutable running : bool;
    mutable gseq : int;
    cache : Cache.t;
    client_tbl : (loc, Txn.reply) Hashtbl.t;  (* latest reply per client *)
    pending : (int, Txn.t * Sim.Node_id.Set.t ref) Hashtbl.t;
    last_hb : (loc, float) Hashtbl.t;
    mutable elect_votes : (loc * int) list;
    mutable elected : bool;  (* election resolved for current cfg *)
    mutable awaiting_recovered : Sim.Node_id.Set.t;
    mutable recovered_set : Sim.Node_id.Set.t;
        (* primary-side: members known up to date; transactions wait only
           for acknowledgments from these (the paper's overlapped state
           transfer: normal processing resumes once at least one backup
           caught up, snapshots stream to the rest in parallel) *)
    mutable snapshot_started : bool;  (* backup-side: receiving chunks *)
    mutable fwd_buffer : (int * Txn.t) list;
        (* backup-side: forwards arriving while a snapshot installs *)
    mutable tob_seq : int;  (* ids for our TOB broadcasts *)
    mutable proposed_at : float;  (* last reconfig proposal time *)
  }

  let backups r = List.filter (fun m -> m <> r.primary) r.cfg.Config.members

  let chain_head r = match r.cfg.Config.members with m :: _ -> m | [] -> r.p_self

  let chain_tail r =
    match List.rev r.cfg.Config.members with m :: _ -> m | [] -> r.p_self

  let chain_successor r =
    let rec go = function
      | a :: b :: _ when a = r.p_self -> Some b
      | _ :: rest -> go rest
      | [] -> None
    in
    go r.cfg.Config.members

  let in_cfg r = Config.contains r.cfg r.p_self

  let charge_db ctx r = R.charge ctx (Database.take_cost r.db)

  let exec_and_record ctx r txn =
    let reply = Txn.execute r.reg r.db txn in
    R.charge ctx r.tun.exec_overhead;
    charge_db ctx r;
    r.gseq <- r.gseq + 1;
    Cache.push r.cache r.gseq txn;
    Hashtbl.replace r.client_tbl txn.Txn.client reply;
    reply

  let reset_hb ctx r =
    List.iter
      (fun m -> Hashtbl.replace r.last_hb m (R.time ctx))
      r.cfg.Config.members

  (* Paper Sec. III-A, recovery steps 1–2: stop, propose a new
     configuration through the broadcast service. *)
  let propose_reconfig ctx r suspects =
    r.running <- false;
    r.proposed_at <- R.time ctx;
    let spares =
      List.filter (fun m -> not (Config.contains r.cfg m)) r.p_all
    in
    let add = List.filteri (fun i _ -> i < List.length suspects) spares in
    let proposal = Config.next r.cfg ~remove:suspects ~add in
    r.tob_seq <- r.tob_seq + 1;
    let payload =
      tob_payload_reconfig proposal ~last_seq:r.gseq ~proposer:r.p_self
    in
    let entry =
      { Tob.origin = r.p_self; id = r.tob_seq; payload }
    in
    let tob_contact =
      Sim.Invariant.head ~layer:"pbr"
        ~what:
          (Printf.sprintf "replica %d proposing reconfiguration: TOB members"
             r.p_self)
        r.p_tob
    in
    R.send ctx ~size:(String.length payload + 24) tob_contact
      (Svc (TM.Broadcast entry))

  (* Step 3: adopt the first proposal for the successor configuration and
     start the election. *)
  let adopt_config ctx r proposal =
    r.cfg <- proposal;
    r.running <- false;
    r.elected <- false;
    r.elect_votes <- [];
    r.awaiting_recovered <- Sim.Node_id.Set.empty;
    r.recovered_set <- Sim.Node_id.Set.empty;
    r.snapshot_started <- false;
    r.fwd_buffer <- [];
    Hashtbl.reset r.pending;
    reset_hb ctx r;
    if in_cfg r then begin
      let msg = Db_msg.Elect { cfg = proposal.Config.seq; last_seq = r.gseq } in
      List.iter
        (fun m ->
          if m = r.p_self then
            r.elect_votes <- (r.p_self, r.gseq) :: r.elect_votes
          else send_db ctx m msg)
        proposal.Config.members
    end

  let snapshot_chunks r ~upto =
    let rows = Database.dump r.db in
    let clients = Hashtbl.fold (fun _ reply acc -> reply :: acc) r.client_tbl [] in
    let rec chunk rows acc =
      match rows with
      | [] -> List.rev acc
      | _ ->
          let n = min r.tun.chunk_rows (List.length rows) in
          let head = List.filteri (fun i _ -> i < n) rows in
          let tail = List.filteri (fun i _ -> i >= n) rows in
          chunk tail (head :: acc)
    in
    let chunks = chunk rows [] in
    let total = List.length chunks in
    List.mapi
      (fun i rows ->
        let last = i = total - 1 in
        Db_msg.Snapshot
          {
            cfg = r.cfg.Config.seq;
            rows;
            upto;
            last;
            clients = (if last then clients else []);
          })
      chunks

  (* Steps 4–5: the member with the largest sequence number becomes
     primary (ties to the smallest identifier) and brings the others up
     to date from its cache, or with a full snapshot. *)
  let conclude_election ctx r =
    let best =
      List.fold_left
        (fun (bl, bs) (l, s) ->
          if s > bs || (s = bs && l < bl) then (l, s) else (bl, bs))
        (max_int, min_int) r.elect_votes
    in
    let primary = fst best in
    r.primary <- primary;
    r.elected <- true;
    if r.p_self = primary then begin
      let others = backups r in
      r.recovered_set <- Sim.Node_id.Set.singleton r.p_self;
      (* Every backup voted (the election only concludes on a full vote
         set), so a missing vote here is a broken internal contract. *)
      let vote_of b =
        Sim.Invariant.assoc ~layer:"pbr"
          ~what:
            (Printf.sprintf "primary %d concluding election: vote of %d"
               r.p_self b)
          b r.elect_votes
      in
      let fast, slow =
        List.partition
          (fun b -> Cache.range r.cache ~from:(vote_of b) ~upto:r.gseq <> None)
          others
      in
      (* The paper's overlapped state transfer: wait only for the backups
         that can catch up from the cache; backups needing a full snapshot
         recover in parallel while normal processing resumes (they are
         added to the acknowledgment set when their Recovered arrives). *)
      r.awaiting_recovered <-
        Sim.Node_id.Set.of_list (if fast = [] then others else fast);
      if others = [] then r.running <- true
      else begin
        List.iter
          (fun b ->
            match Cache.range r.cache ~from:(vote_of b) ~upto:r.gseq with
            | Some txns ->
                send_db ctx b
                  (Db_msg.Catchup
                     { cfg = r.cfg.Config.seq; txns; upto = r.gseq })
            | None ->
                charge_db ctx r;
                List.iter (send_db ctx b) (snapshot_chunks r ~upto:r.gseq))
          others;
        ignore slow
      end
    end

  let handle_elect ctx r ~src ~cfg ~last_seq =
    if cfg = r.cfg.Config.seq && in_cfg r && not r.elected then begin
      if not (List.mem_assoc src r.elect_votes) then
        r.elect_votes <- (src, last_seq) :: r.elect_votes;
      if List.length r.elect_votes = List.length r.cfg.Config.members then
        conclude_election ctx r
    end

  (* Step 6–7: backups acknowledge recovery; the primary resumes. *)
  let handle_recovered r ~src ~cfg =
    if cfg = r.cfg.Config.seq && r.p_self = r.primary then begin
      r.awaiting_recovered <- Sim.Node_id.Set.remove src r.awaiting_recovered;
      r.recovered_set <- Sim.Node_id.Set.add src r.recovered_set;
      if Sim.Node_id.Set.is_empty r.awaiting_recovered then r.running <- true
    end

  let handle_catchup ctx r ~src ~cfg ~txns ~upto =
    if cfg = r.cfg.Config.seq && in_cfg r then begin
      (* The sender is the elected primary (we may have missed votes). *)
      r.primary <- src;
      r.elected <- true;
      List.iter
        (fun (g, txn) ->
          if g > r.gseq then begin
            let reply = Txn.execute r.reg r.db txn in
            R.charge ctx r.tun.exec_overhead;
            charge_db ctx r;
            r.gseq <- g;
            Cache.push r.cache g txn;
            Hashtbl.replace r.client_tbl txn.Txn.client reply
          end)
        txns;
      r.gseq <- max r.gseq upto;
      r.running <- true;
      send_db ctx r.primary (Db_msg.Recovered { cfg })
    end

  let handle_forward ctx r ~cfg ~gseq ~txn =
    if r.style = Chain then begin
      if cfg = r.cfg.Config.seq && in_cfg r then
        if gseq = r.gseq + 1 then begin
          let reply = exec_and_record ctx r txn in
          match chain_successor r with
          | Some next ->
              R.charge ctx r.tun.fwd_overhead;
              send_db ctx next (Db_msg.Forward { cfg; gseq = r.gseq; txn })
          | None ->
              (* Tail: this transaction has now executed at every replica;
                 answer the client. *)
              send_db ctx txn.Txn.client (Db_msg.Reply reply)
        end
        else if gseq > r.gseq + 1 then
          r.fwd_buffer <- (gseq, txn) :: r.fwd_buffer
    end
    else if
      (* Backups only accept transactions tagged with their configuration
         (paper Sec. III-A). *)
      cfg = r.cfg.Config.seq && in_cfg r && r.p_self <> r.primary
    then
      if gseq = r.gseq + 1 then begin
        ignore (exec_and_record ctx r txn);
        send_db ctx r.primary (Db_msg.Ack { cfg; gseq })
      end
      else if gseq <= r.gseq then
        (* Duplicate (already executed): just re-acknowledge. *)
        send_db ctx r.primary (Db_msg.Ack { cfg; gseq })
      else
        (* Ahead of us: normal processing resumed while our snapshot is
           still installing — buffer and replay once it lands. *)
        r.fwd_buffer <- (gseq, txn) :: r.fwd_buffer

  let drain_fwd_buffer ctx r =
    let buffered = List.sort compare (List.rev r.fwd_buffer) in
    r.fwd_buffer <- [];
    List.iter (fun (gseq, txn) -> handle_forward ctx r ~cfg:r.cfg.Config.seq ~gseq ~txn) buffered

  let handle_snapshot ctx r ~src ~cfg ~rows ~upto ~last ~clients =
    if cfg = r.cfg.Config.seq && in_cfg r then begin
      r.primary <- src;
      r.elected <- true;
      if not r.snapshot_started then begin
        r.snapshot_started <- true;
        Database.clear_data r.db;
        Hashtbl.reset r.client_tbl
      end;
      (match Database.load_rows r.db rows with Ok () | Error _ -> ());
      charge_db ctx r;
      if last then begin
        List.iter
          (fun (reply : Txn.reply) ->
            Hashtbl.replace r.client_tbl reply.Txn.client reply)
          clients;
        r.gseq <- upto;
        r.snapshot_started <- false;
        r.running <- true;
        send_db ctx r.primary (Db_msg.Recovered { cfg });
        drain_fwd_buffer ctx r
      end
    end

  (* Chain replication (van Renesse & Schneider), the other classic
     protocol the paper's broadcast service supports: updates enter at the
     head, flow down the chain, and the tail answers — its reply proves
     every replica executed. Read-only transactions are served directly by
     the tail. *)
  let handle_chain_client_txn ctx r txn =
    if not (r.running && in_cfg r) then ()
    else if List.mem txn.Txn.kind r.read_kinds then
      if r.p_self = chain_tail r then begin
        match Hashtbl.find_opt r.client_tbl txn.Txn.client with
        | Some old when old.Txn.seq = txn.Txn.seq ->
            send_db ctx txn.Txn.client (Db_msg.Reply old)
        | Some old when old.Txn.seq > txn.Txn.seq -> ()
        | Some _ | None ->
            (* Reads execute at the tail only; they do not advance the
               chain's update sequence. *)
            let reply = Txn.execute r.reg r.db txn in
            R.charge ctx (r.tun.exec_overhead +. Database.take_cost r.db);
            Hashtbl.replace r.client_tbl txn.Txn.client reply;
            send_db ctx txn.Txn.client (Db_msg.Reply reply)
      end
      else send_db ctx (chain_tail r) (Db_msg.Client_txn txn)
    else if r.p_self = chain_head r then begin
      match Hashtbl.find_opt r.client_tbl txn.Txn.client with
      | Some old when old.Txn.seq = txn.Txn.seq ->
          send_db ctx txn.Txn.client (Db_msg.Reply old)
      | Some old when old.Txn.seq > txn.Txn.seq -> ()
      | Some _ | None -> (
          let reply = exec_and_record ctx r txn in
          match chain_successor r with
          | Some next ->
              R.charge ctx r.tun.fwd_overhead;
              send_db ctx next
                (Db_msg.Forward { cfg = r.cfg.Config.seq; gseq = r.gseq; txn })
          | None -> send_db ctx txn.Txn.client (Db_msg.Reply reply))
    end
    else send_db ctx (chain_head r) (Db_msg.Client_txn txn)

  let handle_client_txn ctx r txn =
    if r.style = Chain then handle_chain_client_txn ctx r txn
    else if not (r.running && in_cfg r) then ()
    else if r.p_self <> r.primary then
      (* Misrouted: pass it on (the reply goes straight to the client). *)
      send_db ctx r.primary (Db_msg.Client_txn txn)
    else begin
      match Hashtbl.find_opt r.client_tbl txn.Txn.client with
      | Some old when old.Txn.seq = txn.Txn.seq ->
          send_db ctx txn.Txn.client (Db_msg.Reply old)
      | Some old when old.Txn.seq > txn.Txn.seq -> ()
      | Some _ | None ->
          let reply = exec_and_record ctx r txn in
          let bs = backups r in
          (* Forward to every backup, but wait only for the recovered ones
             (a snapshotting backup buffers and acknowledges later). *)
          let awaited =
            if Sim.Node_id.Set.is_empty r.recovered_set then bs
            else List.filter (fun b -> Sim.Node_id.Set.mem b r.recovered_set) bs
          in
          if awaited = [] && bs = [] then
            send_db ctx txn.Txn.client (Db_msg.Reply reply)
          else begin
            Hashtbl.replace r.pending r.gseq
              ( txn,
                ref (Sim.Node_id.Set.of_list (if awaited = [] then bs else awaited)) );
            let fwd =
              Db_msg.Forward { cfg = r.cfg.Config.seq; gseq = r.gseq; txn }
            in
            List.iter
              (fun b ->
                R.charge ctx r.tun.fwd_overhead;
                send_db ctx b fwd)
              bs
          end
    end

  let handle_ack ctx r ~cfg ~gseq ~src =
    if cfg = r.cfg.Config.seq && r.p_self = r.primary then
      match Hashtbl.find_opt r.pending gseq with
      | None -> ()
      | Some (txn, missing) ->
          missing := Sim.Node_id.Set.remove src !missing;
          R.charge ctx (r.tun.fwd_overhead /. 2.0);
          if Sim.Node_id.Set.is_empty !missing then begin
            Hashtbl.remove r.pending gseq;
            match Hashtbl.find_opt r.client_tbl txn.Txn.client with
            | Some reply when reply.Txn.seq = txn.Txn.seq ->
                send_db ctx txn.Txn.client (Db_msg.Reply reply)
            | Some _ | None -> ()
          end

  let check_suspicion ctx r =
    if in_cfg r then begin
      let now = R.time ctx in
      let suspects =
        List.filter
          (fun m ->
            m <> r.p_self
            &&
            match Hashtbl.find_opt r.last_hb m with
            | Some t -> now -. t > r.tun.detect_timeout
            | None -> false)
          r.cfg.Config.members
      in
      (* Re-propose at most once per detection interval while the
         suspicion persists (the first delivered proposal wins). *)
      if suspects <> [] && now -. r.proposed_at > r.tun.detect_timeout /. 2.0
      then propose_reconfig ctx r suspects
    end

  let handle_note ctx r (d : Tob.deliver) =
    match decode_payload d.Tob.entry.Tob.payload with
    | P_reconfig (proposal, _, _) ->
        if proposal.Config.seq = r.cfg.Config.seq + 1 then
          adopt_config ctx r proposal
    | P_txn _ | P_prepare _ | P_decision _ | P_bytes _ -> ()

  let pbr_replica_handler ~style ~read_kinds ~shared ~all_ref ~tob_ref
      ~backend ~setup ~registry ~tun ~initial_members () =
    let r_holder = ref None in
    let get ctx =
      match !r_holder with
      | Some r -> r
      | None ->
          let self = R.self ctx in
          let db = Database.create backend in
          setup db;
          ignore (Database.take_cost db);
          let members = initial_members () in
          let r =
            {
              style;
              read_kinds;
              p_self = self;
              p_all = !all_ref;
              p_tob = !tob_ref;
              db;
              reg = registry ();
              tun;
              cfg = Config.initial members;
              primary = List.fold_left min max_int members;
              running = Config.contains (Config.initial members) self;
              gseq = 0;
              cache = Cache.create tun.cache_cap;
              client_tbl = Hashtbl.create 64;
              pending = Hashtbl.create 64;
              last_hb = Hashtbl.create 8;
              elect_votes = [];
              elected = true;
              awaiting_recovered = Sim.Node_id.Set.empty;
              recovered_set = Sim.Node_id.Set.empty;
              snapshot_started = false;
              fwd_buffer = [];
              tob_seq = 0;
              proposed_at = -1.0e9;
            }
          in
          reset_hb ctx r;
          Registry.set shared self r;
          r_holder := Some r;
          r
    in
    fun ctx input ->
      let r = get ctx in
      match input with
      | R.Init ->
          ignore (R.set_timer ctx r.tun.hb_interval "hb");
          ignore (R.set_timer ctx (r.tun.detect_timeout /. 4.0) "detect")
      | R.Timer { tag = "hb"; _ } ->
          if in_cfg r then begin
            let hb = Db_msg.Heartbeat { cfg = r.cfg.Config.seq } in
            List.iter
              (fun m -> if m <> r.p_self then send_db ctx m hb)
              r.cfg.Config.members
          end;
          ignore (R.set_timer ctx r.tun.hb_interval "hb")
      | R.Timer { tag = "detect"; _ } ->
          check_suspicion ctx r;
          (* Re-send election votes until the election concludes: a vote
             sent before a peer adopted the configuration is lost. *)
          if in_cfg r && not r.elected then begin
            let msg =
              Db_msg.Elect { cfg = r.cfg.Config.seq; last_seq = r.gseq }
            in
            List.iter
              (fun m -> if m <> r.p_self then send_db ctx m msg)
              r.cfg.Config.members
          end;
          ignore (R.set_timer ctx (r.tun.detect_timeout /. 4.0) "detect")
      | R.Timer _ -> ()
      | R.Recv { src; msg } -> (
          match msg with
          | Note d -> handle_note ctx r d
          | Svc _ -> ()
          | Db m -> (
              match m with
              | Db_msg.Client_txn txn -> handle_client_txn ctx r txn
              | Db_msg.Forward { cfg; gseq; txn } ->
                  handle_forward ctx r ~cfg ~gseq ~txn
              | Db_msg.Ack { cfg; gseq } -> handle_ack ctx r ~cfg ~gseq ~src
              | Db_msg.Reply _ -> ()
              | Db_msg.Heartbeat _ ->
                  Hashtbl.replace r.last_hb src (R.time ctx)
              | Db_msg.Elect { cfg; last_seq } ->
                  handle_elect ctx r ~src ~cfg ~last_seq
              | Db_msg.Catchup { cfg; txns; upto } ->
                  handle_catchup ctx r ~src ~cfg ~txns ~upto
              | Db_msg.Snapshot { cfg; rows; upto; last; clients } ->
                  handle_snapshot ctx r ~src ~cfg ~rows ~upto ~last ~clients
              | Db_msg.Recovered { cfg } -> handle_recovered r ~src ~cfg
              | Db_msg.Snapshot_req _ | Db_msg.Vote _ -> ()))

  let spawn_pbr ?(style = Primary_backup) ?(read_kinds = [])
      ?(tun = default_tuning) ?(backends : Storage.Store.kind list option)
      ?(tob_profile = Gpm.Engine_profile.Interpreted_opt) ?tob_window ~world
      ~registry ~setup ~n_active ~n_spare () =
    let n = n_active + n_spare in
    let shared : pbr_replica Registry.t = Registry.create () in
    let all_ref = ref [] in
    let tob_ref = ref [] in
    let initial_members () = List.filteri (fun i _ -> i < n_active) !all_ref in
    let backend_of i =
      match backends with
      | None -> Storage.Store.Hazel
      | Some bs -> List.nth bs (i mod List.length bs)
    in
    let replicas =
      List.init n (fun i ->
          R.spawn world
            ~name:(Printf.sprintf "pbr%d" i)
            (pbr_replica_handler ~style ~read_kinds ~shared ~all_ref ~tob_ref
               ~backend:(backend_of i) ~setup ~registry ~tun ~initial_members))
    in
    all_ref := replicas;
    let tob =
      Shell.spawn ~profile:tob_profile ?window:tob_window ~world
        ~inj:(fun m -> Svc m)
        ~prj:(function Svc m -> Some m | Note _ | Db _ -> None)
        ~inj_notify:(fun d -> Note d)
        ~n:3
        ~subscribers:(fun () -> replicas)
        ()
    in
    tob_ref := tob;
    let view l f ~default = Registry.view shared l f ~default in
    {
      pbr_replicas = replicas;
      pbr_tob = tob;
      pbr_initial_primary = List.fold_left min max_int (initial_members ());
      pbr_primary_of = (fun l -> view l (fun r -> r.primary) ~default:(-1));
      pbr_cfg_of = (fun l -> view l (fun r -> r.cfg.Config.seq) ~default:(-1));
      pbr_gseq_of = (fun l -> view l (fun r -> r.gseq) ~default:0);
      pbr_hash_of =
        (fun l -> view l (fun r -> Database.content_hash r.db) ~default:0);
    }

  let spawn_chain ?read_kinds ?tun ?backends ?tob_profile ?tob_window ~world
      ~registry ~setup ~n_active ~n_spare () =
    spawn_pbr ~style:Chain ?read_kinds ?tun ?backends ?tob_profile ?tob_window
      ~world ~registry ~setup ~n_active ~n_spare ()

  (* ------------------------------------------------------------------ *)
  (* State machine replication                                           *)
  (* ------------------------------------------------------------------ *)

  type smr_role = Active | Sparing | Syncing

  (* Per-node durability hooks: [dur_backend i] supplies node [i]'s
     persistent backend (file-backed live, in-memory under the sim),
     [dur_policy i] its group-commit/snapshot cadence, and
     [dur_on_recover] observes the recovery report each time node [i]
     (re)initializes — the monitors and the chaos drill hang off it. *)
  type durability = {
    dur_backend : int -> Durable.Backend.t;
    dur_policy : int -> Durable.Manager.policy;
    dur_on_recover : int -> Durable.Manager.report -> state_hash:int -> unit;
  }

  (* ---- Cross-shard 2PC participant state -------------------------- *)

  (* In a sharded deployment every replica of a shard additionally acts
     as a 2PC participant: prepares trial-execute and lock, decisions
     unlock and (on commit) really execute. All of this state is
     reconstructed after a crash by replaying the WAL through the same
     [x2pc_apply] used live (with sends suppressed), so it needs no
     snapshotting of its own. *)

  type x2pc_config = {
    xc_shard : int;
    xc_coord : loc;
    xc_keys_of : Txn.t -> Shard.key list;
    xc_on_apply :
      shard:int ->
      node:loc ->
      client:loc ->
      seq:int ->
      commit:bool ->
      keys:Shard.key list ->
      unit;
  }

  type x2pc_staged = {
    g_txn : Txn.t;
    g_keys : Shard.key list;
    g_participants : int list;
    g_vote : Txn.reply;
  }

  type x2pc = {
    xcfg : x2pc_config;
    x_self : loc;
    staged : (loc * int, x2pc_staged) Hashtbl.t;  (* xid = (client, seq) *)
    locks : (Shard.key, loc * int) Hashtbl.t;  (* key -> locking xid *)
    mutable deferred : Txn.t list;
        (* single-shard transactions delivered while a key they touch was
           locked by an undecided prepare; drained in order at decision
           application *)
    applied : (loc * int, bool) Hashtbl.t;
        (* every decided xid — dedups re-broadcast decisions *)
  }

  let xid_of (t : Txn.t) = (t.Txn.client, t.Txn.seq)

  let x2pc_locked x keys = List.exists (fun k -> Hashtbl.mem x.locks k) keys

  (* Deterministic 2PC participant step, shared verbatim by live TOB
     delivery and WAL-replay recovery: the effects ([exec_reply] for
     single-shard transactions, [exec] for committed sub-transactions,
     [send_vote] toward the coordinator) are the only difference between
     the two callers — recovery suppresses the sends and re-executes
     silently, leaving locks/staged/deferred/applied exactly as the
     pre-crash replica had them. *)
  let x2pc_apply ~sreg ~db x payload ~exec_reply ~exec ~send_vote =
    let drain () =
      let still =
        List.filter
          (fun t ->
            if x2pc_locked x (x.xcfg.xc_keys_of t) then true
            else begin
              exec_reply t;
              false
            end)
          x.deferred
      in
      x.deferred <- still
    in
    match payload with
    | P_txn txn ->
        (* Single-shard transaction ordered by this shard's own TOB. If a
           key is locked by an undecided prepare it must wait for the
           decision — executing now would read uncommitted 2PC state. *)
        if x2pc_locked x (x.xcfg.xc_keys_of txn) then
          x.deferred <- x.deferred @ [ txn ]
        else exec_reply txn
    | P_prepare (_coord, shard, participants, ptxn) ->
        if shard = x.xcfg.xc_shard then begin
          let xid = xid_of ptxn in
          if not (Hashtbl.mem x.applied xid || Hashtbl.mem x.staged xid)
          then begin
            let keys = x.xcfg.xc_keys_of ptxn in
            if x2pc_locked x keys then
              (* No-vote: not staged, no locks taken, never resent — a
                 lost no-vote is covered by the coordinator's timeout
                 abort. Sinfonia-style: never wait for a lock, so there
                 is no distributed deadlock. *)
              send_vote ~participants
                ~vote:
                  {
                    Txn.client = ptxn.Txn.client;
                    seq = ptxn.Txn.seq;
                    outcome = Error "locked";
                  }
                ~vtxn:ptxn
            else begin
              let vote = Txn.execute_trial sreg db ptxn in
              (match vote.Txn.outcome with
              | Ok _ ->
                  List.iter (fun k -> Hashtbl.replace x.locks k xid) keys;
                  Hashtbl.replace x.staged xid
                    {
                      g_txn = ptxn;
                      g_keys = keys;
                      g_participants = participants;
                      g_vote = vote;
                    }
              | Error _ -> ());
              send_vote ~participants ~vote ~vtxn:ptxn
            end
          end
          (* Duplicate prepare of a staged xid: ignored — the periodic
             vote-resend timer already covers a lost yes-vote. *)
        end
    | P_decision (shard, commit, dtxn) ->
        if shard = x.xcfg.xc_shard then begin
          let xid = xid_of dtxn in
          if not (Hashtbl.mem x.applied xid) then begin
            Hashtbl.replace x.applied xid commit;
            let keys =
              match Hashtbl.find_opt x.staged xid with
              | Some g ->
                  Hashtbl.remove x.staged xid;
                  g.g_keys
              | None ->
                  (* Never staged (missed the prepare, or no-voted): the
                     decision carries the sub-transaction, so a commit
                     still applies. *)
                  x.xcfg.xc_keys_of dtxn
            in
            List.iter
              (fun k ->
                match Hashtbl.find_opt x.locks k with
                | Some owner when owner = xid -> Hashtbl.remove x.locks k
                | _ -> ())
              keys;
            if commit then exec dtxn;
            x.xcfg.xc_on_apply ~shard ~node:x.x_self ~client:(fst xid)
              ~seq:(snd xid) ~commit ~keys;
            drain ()
          end
        end
    | P_reconfig _ | P_bytes _ ->
        (* Reconfiguration is disabled in sharded mode: a spare activated
           mid-2PC would lack lock/stage state. *)
        ()

  type smr_replica = {
    s_self : loc;
    s_nodes : loc list;  (* the three co-located TOB/DB machines *)
    sdb : Database.t;
    sreg : Txn.registry;
    stun : tuning;
    costs : Broadcast.Shell.costs;
    mutable tob : TM.t;
    mutable scfg : Config.t;
    mutable role : smr_role;
    mutable sgseq : int;  (* delivered entries counted by every node *)
    mutable buffered : Txn.t list;  (* delivered while syncing, oldest first *)
    mutable pending_snapshot :
      ((string * Value.t array) list * int) option;
        (* proposer-side snapshot taken at reconfig delivery *)
    mutable snap_started : bool;
    mutable sync_proposer : loc option;
        (* who to (re-)request the snapshot from while Syncing *)
    s_last_hb : (loc, float) Hashtbl.t;
    mutable s_proposed_at : float;
    mutable s_tob_seq : int;
    sx2pc : x2pc option;  (* 2PC participant state, sharded mode only *)
    sdur : Durable.Manager.t option;  (* write-ahead durability, if on *)
    mutable sdur_floor : int;
        (* highest TOB seqno already applied (recovered or live): a
           restarted broadcast member re-delivers the total order from
           where its peers re-learn it, so deliveries at or below the
           floor are duplicates of recovered state and must be skipped *)
  }

  type smr_cluster = {
    smr_nodes : loc list;
    smr_active_of : loc -> bool;
    smr_cfg_of : loc -> int;
    smr_gseq_of : loc -> int;
    smr_hash_of : loc -> int;
    smr_db_view : 'a. loc -> (Database.t -> 'a) -> default:'a -> 'a;
        (* read-only view of a replica's database (e.g. conservation
           sums in the checker); [default] when the node never
           initialized *)
  }

  let smr_exec ctx r txn =
    let reply = Txn.execute r.sreg r.sdb txn in
    R.charge ctx (r.stun.exec_overhead +. Database.take_cost r.sdb);
    send_db ctx txn.Txn.client (Db_msg.Reply reply)

  let smr_adopt ctx r proposal ~proposer =
    r.scfg <- proposal;
    List.iter
      (fun m -> Hashtbl.replace r.s_last_hb m (R.time ctx))
      proposal.Config.members;
    let member = Config.contains proposal r.s_self in
    match (r.role, member) with
    | Active, true -> ()
    | Active, false ->
        r.role <- Sparing;
        r.buffered <- []
    | Sparing, true ->
        (* Activated: buffer subsequent transactions and fetch the
           snapshot corresponding to this point of the total order. *)
        r.role <- Syncing;
        r.buffered <- [];
        r.snap_started <- false;
        r.sync_proposer <- Some proposer;
        send_db ctx proposer
          (Db_msg.Snapshot_req { cfg = proposal.Config.seq; from_seq = r.sgseq })
    | Sparing, false -> ()
    | Syncing, true -> ()
    | Syncing, false ->
        r.role <- Sparing;
        r.buffered <- []

  (* One WAL record per applied transaction: [idx] is the TOB delivery
     seqno (the position in the total order), [aux] the replica's
     delivered-entry count, [hash] the state fingerprint after applying,
     [payload] the delivered entry's payload verbatim (so replay decodes
     it with the same codec as delivery). *)
  let smr_durable_record r (d : Tob.deliver) =
    {
      Durable.Wal.idx = d.Tob.seqno;
      aux = r.sgseq;
      hash = Database.content_hash r.sdb;
      payload = d.Tob.entry.Tob.payload;
    }

  let smr_durable_image ctx r =
    let rows = Database.dump r.sdb in
    R.charge ctx (Database.take_cost r.sdb);
    Codec.encode_rows rows

  let smr_deliver ctx r (d : Tob.deliver) =
    if r.sdur <> None && d.Tob.seqno <= r.sdur_floor then
      (* Duplicate of recovered state: a restarted broadcast member
         re-delivers entries the WAL already covers. Skip entirely — the
         recovered [sgseq] already counted them. *)
      ()
    else begin
      r.sdur_floor <- max r.sdur_floor d.Tob.seqno;
      R.charge ctx r.costs.Broadcast.Shell.per_entry;
      r.sgseq <- r.sgseq + 1;
      match r.sx2pc with
      | Some x ->
          (* Sharded mode: every delivery (transaction, prepare or
             decision) flows through the 2PC participant step, and every
             delivery is WAL-logged so recovery replays the identical
             sequence. No snapshots here — a snapshot would capture the
             database but not the lock/stage tables, so sharded replicas
             recover by full-log replay. *)
          if r.role = Active then begin
            if R.observing ctx then
              R.observe ctx
                (R.Ob_deliver
                   {
                     seqno = d.Tob.seqno;
                     origin = d.Tob.entry.Tob.origin;
                     id = d.Tob.entry.Tob.id;
                     payload = d.Tob.entry.Tob.payload;
                   });
            x2pc_apply ~sreg:r.sreg ~db:r.sdb x
              (decode_payload d.Tob.entry.Tob.payload)
              ~exec_reply:(fun txn -> smr_exec ctx r txn)
              ~exec:(fun txn ->
                ignore (Txn.execute r.sreg r.sdb txn);
                R.charge ctx
                  (r.stun.exec_overhead +. Database.take_cost r.sdb))
              ~send_vote:(fun ~participants ~vote ~vtxn ->
                send_db ctx x.xcfg.xc_coord
                  (Db_msg.Vote
                     { shard = x.xcfg.xc_shard; participants; vote; vtxn }));
            (match r.sdur with
            | None -> ()
            | Some mgr -> Durable.Manager.append mgr (smr_durable_record r d));
            if R.observing ctx then
              R.observe ctx
                (R.Ob_checkpoint
                   {
                     gseq = r.sgseq;
                     seqno = d.Tob.seqno;
                     hash = Database.content_hash r.sdb;
                   })
          end
      | None -> (
      match decode_payload d.Tob.entry.Tob.payload with
      | P_txn txn -> (
          match r.role with
          | Active ->
              if R.observing ctx then
                R.observe ctx
                  (R.Ob_deliver
                     {
                       seqno = d.Tob.seqno;
                       origin = d.Tob.entry.Tob.origin;
                       id = d.Tob.entry.Tob.id;
                       payload = d.Tob.entry.Tob.payload;
                     });
              smr_exec ctx r txn;
              (match r.sdur with
              | None -> ()
              | Some mgr ->
                  Durable.Manager.append mgr (smr_durable_record r d);
                  Durable.Manager.maybe_snapshot mgr ~payload:(fun () ->
                      smr_durable_image ctx r));
              if R.observing ctx then
                R.observe ctx
                  (R.Ob_checkpoint
                     {
                       gseq = r.sgseq;
                       seqno = d.Tob.seqno;
                       hash = Database.content_hash r.sdb;
                     })
          | Syncing -> r.buffered <- r.buffered @ [ txn ]
          | Sparing -> ())
      | P_reconfig (proposal, _, proposer) ->
          if proposal.Config.seq = r.scfg.Config.seq + 1 then begin
            (* The proposer snapshots its database at this exact point of
               the delivery order, so the spare can take over from here. *)
            if r.s_self = proposer && r.role = Active then begin
              r.pending_snapshot <- Some (Database.dump r.sdb, r.sgseq);
              R.charge ctx (Database.take_cost r.sdb)
            end;
            smr_adopt ctx r proposal ~proposer
          end
      | P_prepare _ | P_decision _ -> ()  (* sharded records, plain group *)
      | P_bytes _ -> ())
    end

  let smr_feed_tob ctx r (t, acts) =
    r.tob <- t;
    List.iter
      (function
        | TM.Send (dst, m) ->
            R.send ctx ~size:256 dst (Svc m)
        | TM.Notify (dst, d) ->
            if dst = r.s_self then smr_deliver ctx r d
            else R.send ctx dst (Note d)
        | TM.Set_timer delay -> ignore (R.set_timer ctx delay "tob"))
      acts

  let smr_broadcast ctx r payload =
    r.s_tob_seq <- r.s_tob_seq + 1;
    let entry = { Tob.origin = r.s_self; id = r.s_tob_seq; payload } in
    smr_feed_tob ctx r
      (TM.recv r.tob ~now:(R.time ctx) ~src:r.s_self (TM.Broadcast entry))

  let smr_check_suspicion ctx r =
    (* A syncing spare re-requests the snapshot until it arrives (the
       proposer may deliver the reconfiguration after we did). *)
    (match (r.role, r.sync_proposer) with
    | Syncing, Some proposer when not r.snap_started ->
        send_db ctx proposer
          (Db_msg.Snapshot_req { cfg = r.scfg.Config.seq; from_seq = r.sgseq })
    | _ -> ());
    if r.role = Active then begin
      let now = R.time ctx in
      let suspects =
        List.filter
          (fun m ->
            m <> r.s_self
            &&
            match Hashtbl.find_opt r.s_last_hb m with
            | Some t -> now -. t > r.stun.detect_timeout
            | None -> false)
          r.scfg.Config.members
      in
      if suspects <> [] && now -. r.s_proposed_at > r.stun.detect_timeout /. 2.0
      then begin
        r.s_proposed_at <- now;
        let spares =
          List.filter (fun m -> not (Config.contains r.scfg m)) r.s_nodes
        in
        let add = List.filteri (fun i _ -> i < List.length suspects) spares in
        let proposal = Config.next r.scfg ~remove:suspects ~add in
        smr_broadcast ctx r
          (tob_payload_reconfig proposal ~last_seq:r.sgseq ~proposer:r.s_self)
      end
    end

  (* Resend the yes-votes of every still-staged xid (sorted for
     determinism): a vote sent before the coordinator crashed — or lost
     with a crashed shard replica — must keep flowing until the decision
     arrives. Runs on the same periodic timer as failure detection. *)
  let x2pc_resend_votes ctx x =
    let entries = Hashtbl.fold (fun xid g acc -> (xid, g) :: acc) x.staged [] in
    List.iter
      (fun (_, g) ->
        send_db ctx x.xcfg.xc_coord
          (Db_msg.Vote
             {
               shard = x.xcfg.xc_shard;
               participants = g.g_participants;
               vote = g.g_vote;
               vtxn = g.g_txn;
             }))
      (List.sort (fun (a, _) (b, _) -> compare a b) entries)

  let smr_handler ~shared ~nodes_ref ~backend ~setup ~registry ~tun
      ~costs ~tob_window ~n_active ~durable ~x2pc () =
    let holder = ref None in
    let get ctx =
      match !holder with
      | Some r -> r
      | None ->
          let self = R.self ctx in
          let db = Database.create backend in
          setup db;
          ignore (Database.take_cost db);
          let sreg = registry () in
          (* 2PC participant state precedes recovery so WAL replay can
             repopulate it. *)
          let xstate =
            Option.map
              (fun xcfg ->
                {
                  xcfg;
                  x_self = self;
                  staged = Hashtbl.create 16;
                  locks = Hashtbl.create 64;
                  deferred = [];
                  applied = Hashtbl.create 64;
                })
              x2pc
          in
          (* Deterministic recovery, run on the node's first event after
             every (re)start: install the latest valid snapshot, truncate
             any torn WAL tail, replay the remaining records through the
             normal transaction engine. A fresh node recovers from an
             empty backend to the initial state. *)
          let recovery =
            match durable with
            | None -> None
            | Some (i, dur) ->
                let install (w : Durable.Wal.record) =
                  match Codec.decode_rows w.Durable.Wal.payload with
                  | Ok rows -> (
                      Database.clear_data db;
                      match Database.load_rows db rows with
                      | Ok () -> ()
                      | Error e ->
                          Sim.Invariant.fail "durable"
                            "node %d: snapshot install failed: %s" i e)
                  | Error e ->
                      Sim.Invariant.fail "durable"
                        "node %d: snapshot payload undecodable: %s" i e
                in
                let apply (w : Durable.Wal.record) =
                  match xstate with
                  | Some x ->
                      (* Replay the identical participant step with sends
                         suppressed: database, locks, staged votes,
                         deferred queue and applied-decision set all come
                         back exactly as logged. Votes flow again via the
                         periodic resend timer, not here. *)
                      let silent txn = ignore (Txn.execute sreg db txn) in
                      x2pc_apply ~sreg ~db x
                        (decode_payload w.Durable.Wal.payload)
                        ~exec_reply:silent ~exec:silent
                        ~send_vote:(fun ~participants:_ ~vote:_ ~vtxn:_ -> ())
                  | None -> (
                      match decode_payload w.Durable.Wal.payload with
                      | P_txn txn -> ignore (Txn.execute sreg db txn)
                      | P_reconfig _ | P_prepare _ | P_decision _
                      | P_bytes _ ->
                          ())
                in
                let mgr, report =
                  Durable.Manager.recover (dur.dur_backend i)
                    (dur.dur_policy i) ~install ~apply
                in
                dur.dur_on_recover i report
                  ~state_hash:(Database.content_hash db);
                Some (mgr, report)
          in
          let nodes = !nodes_ref in
          let members = List.filteri (fun i _ -> i < n_active) nodes in
          let r =
            {
              s_self = self;
              s_nodes = nodes;
              sdb = db;
              sreg;
              stun = tun;
              costs;
              tob =
                TM.create ?window:tob_window ~self ~members:nodes
                  ~subscribers:[ self ] ();
              scfg = Config.initial members;
              role = (if List.mem self members then Active else Sparing);
              sgseq =
                (match recovery with
                | Some (_, rep) -> rep.Durable.Manager.recovered_aux
                | None -> 0);
              buffered = [];
              pending_snapshot = None;
              snap_started = false;
              sync_proposer = None;
              s_last_hb = Hashtbl.create 8;
              s_proposed_at = -1.0e9;
              s_tob_seq = 0;
              sx2pc = xstate;
              sdur = Option.map fst recovery;
              sdur_floor =
                (match recovery with
                | Some (_, rep) -> rep.Durable.Manager.recovered_idx
                | None -> -1);
            }
          in
          List.iter
            (fun m -> Hashtbl.replace r.s_last_hb m (R.time ctx))
            members;
          Registry.set shared self r;
          holder := Some r;
          r
    in
    fun ctx input ->
      let r = get ctx in
      match input with
      | R.Init ->
          smr_feed_tob ctx r (TM.start r.tob ~now:(R.time ctx));
          ignore (R.set_timer ctx r.stun.hb_interval "hb");
          ignore (R.set_timer ctx (r.stun.detect_timeout /. 4.0) "detect")
      | R.Timer { tag = "tob"; _ } ->
          smr_feed_tob ctx r (TM.tick r.tob ~now:(R.time ctx))
      | R.Timer { tag = "hb"; _ } ->
          if r.role = Active then begin
            let hb = Db_msg.Heartbeat { cfg = r.scfg.Config.seq } in
            List.iter
              (fun m -> if m <> r.s_self then send_db ctx m hb)
              r.scfg.Config.members
          end;
          ignore (R.set_timer ctx r.stun.hb_interval "hb")
      | R.Timer { tag = "detect"; _ } ->
          (match r.sx2pc with
          | Some x ->
              (* Sharded mode: no suspicion/reconfiguration (spares can't
                 inherit 2PC state); the timer drives vote resends
                 instead. *)
              if r.role = Active then x2pc_resend_votes ctx x
          | None -> smr_check_suspicion ctx r);
          ignore (R.set_timer ctx (r.stun.detect_timeout /. 4.0) "detect")
      | R.Timer _ -> ()
      | R.Recv { src; msg } -> (
          match msg with
          | Svc m ->
              (match m with
              | TM.Broadcast _ ->
                  R.charge ctx r.costs.Broadcast.Shell.client_msg
              | TM.Core _ -> R.charge ctx r.costs.Broadcast.Shell.core_msg);
              smr_feed_tob ctx r (TM.recv r.tob ~now:(R.time ctx) ~src m)
          | Note d -> smr_deliver ctx r d
          | Db (Db_msg.Heartbeat _) ->
              Hashtbl.replace r.s_last_hb src (R.time ctx)
          | Db (Db_msg.Snapshot_req { cfg; _ }) -> (
              if cfg = r.scfg.Config.seq then
                match r.pending_snapshot with
                | None -> ()
                | Some (rows, upto) ->
                    let clients = [] in
                    let rec chunk rows =
                      let n = min r.stun.chunk_rows (List.length rows) in
                      let head = List.filteri (fun i _ -> i < n) rows in
                      let tail = List.filteri (fun i _ -> i >= n) rows in
                      let last = tail = [] in
                      send_db ctx src
                        (Db_msg.Snapshot
                           { cfg; rows = head; upto; last; clients });
                      if not last then chunk tail
                    in
                    if rows = [] then
                      send_db ctx src
                        (Db_msg.Snapshot { cfg; rows = []; upto; last = true; clients })
                    else chunk rows)
          | Db (Db_msg.Snapshot { cfg; rows; upto = _; last; clients = _ }) ->
              if cfg = r.scfg.Config.seq && r.role = Syncing then begin
                if not r.snap_started then begin
                  r.snap_started <- true;
                  Database.clear_data r.sdb
                end;
                (match Database.load_rows r.sdb rows with
                | Ok () | Error _ -> ());
                R.charge ctx (Database.take_cost r.sdb);
                if last then begin
                  r.role <- Active;
                  r.snap_started <- false;
                  r.sync_proposer <- None;
                  let todo = r.buffered in
                  r.buffered <- [];
                  List.iter (smr_exec ctx r) todo;
                  (* The installed state supersedes whatever the WAL
                     described: pin the transferred position and snapshot
                     it so a crash right after state transfer recovers to
                     here, not to the stale pre-transfer log. *)
                  match r.sdur with
                  | None -> ()
                  | Some mgr ->
                      Durable.Manager.install_state mgr
                        {
                          Durable.Wal.idx = r.sdur_floor;
                          aux = r.sgseq;
                          hash = Database.content_hash r.sdb;
                          payload = smr_durable_image ctx r;
                        }
                end
              end
          | Db _ -> ())

  let spawn_smr_group ?(name_prefix = "") ?x2pc ?(tun = default_tuning)
      ?(backends : Storage.Store.kind list option) ?durability
      ?(costs = Broadcast.Shell.default_costs) ?tob_window ~world ~registry
      ~setup ~n_active () =
    let shared : smr_replica Registry.t = Registry.create () in
    let nodes_ref = ref [] in
    let backend_of i =
      match backends with
      | None -> Storage.Store.Hazel
      | Some bs -> List.nth bs (i mod List.length bs)
    in
    let nodes =
      List.init 3 (fun i ->
          R.spawn world
            ~name:(Printf.sprintf "%ssmr%d" name_prefix i)
            (smr_handler ~shared ~nodes_ref ~backend:(backend_of i) ~setup
               ~registry ~tun ~costs ~tob_window ~n_active
               ~durable:(Option.map (fun d -> (i, d)) durability)
               ~x2pc))
    in
    nodes_ref := nodes;
    let view l f ~default = Registry.view shared l f ~default in
    {
      smr_nodes = nodes;
      smr_active_of = (fun l -> view l (fun r -> r.role = Active) ~default:false);
      smr_cfg_of = (fun l -> view l (fun r -> r.scfg.Config.seq) ~default:(-1));
      smr_gseq_of = (fun l -> view l (fun r -> r.sgseq) ~default:0);
      smr_hash_of =
        (fun l -> view l (fun r -> Database.content_hash r.sdb) ~default:0);
      smr_db_view =
        (fun l f ~default -> view l (fun r -> f r.sdb) ~default);
    }

  let spawn_smr ?tun ?backends ?durability ?costs ?tob_window ~world
      ~registry ~setup ~n_active () =
    spawn_smr_group ?tun ?backends ?durability ?costs ?tob_window ~world
      ~registry ~setup ~n_active ()

  (* ------------------------------------------------------------------ *)
  (* Sharded deployment: per-shard TOB groups + 2PC-over-TOB             *)
  (* ------------------------------------------------------------------ *)

  type coord_pending = {
    mutable cp_votes : (int * Txn.reply) list;  (* shard -> vote *)
    mutable cp_parts : (int * Txn.t) list;  (* shard -> sub-txn *)
    mutable cp_participants : int list;
    cp_created : float;
  }

  type coord_decision = {
    cd_commit : bool;
    cd_reply : Txn.reply;
    cd_parts : (int * Txn.t) list;
  }

  type coord_journal =
    (loc * int, coord_decision) Hashtbl.t * (loc * int) list ref
  (* Decisions in decision order, newest first. Allocated by
     [spawn_sharded] (so it survives coordinator restarts — the
     "persisted prepare decision" of the safety argument) unless
     [coord_journal:false] deliberately breaks it for the checker's
     broken-2PC fixture. *)

  (* The 2PC coordinator. Deliberately NOT a TOB member: it injects
     prepare and decision records into each participant shard's own TOB
     (via any shard member, like a client would), so the records are
     totally ordered against that shard's transactions. All soft state
     (pending votes) reconstructs after a crash from the participants'
     periodic vote resends; decided outcomes come from the journal.

     Decisions are broadcast one per "pump" tick rather than all at
     once: a handler runs atomically under the sim, so the pump is what
     makes "coordinator crashed after informing some but not all
     participants" a schedulable state the checker can actually reach. *)
  let coord_handler ~router ~members_of ~journal ~pending_timeout
      ~pump_interval ~committed ~aborted ~on_decide () =
    let decided, decided_order =
      match (journal : coord_journal option) with
      | Some (tbl, order) -> (tbl, order)
      | None -> (Hashtbl.create 32, ref [])
      (* fresh per incarnation: decisions forgotten on crash *)
    in
    let pendings : (loc * int, coord_pending) Hashtbl.t = Hashtbl.create 32 in
    let pump : (int * bool * Txn.t) Queue.t = Queue.create () in
    (* (shard, xid) entries currently sitting in [pump]: periodic vote
       resends from still-staged replicas re-request their shard's
       decision faster than the one-per-tick pump drains, so without
       dedup the queue grows without bound and every decision falls
       further behind the resend rate. *)
    let queued : (int * (loc * int), unit) Hashtbl.t = Hashtbl.create 32 in
    let pump_armed = ref false in
    let rot = ref 0 in
    let bcast ctx ~shard entry =
      match members_of shard with
      | [] -> ()
      | members ->
          let contact = List.nth members (!rot mod List.length members) in
          incr rot;
          R.send ctx ~size:256 contact (Svc (TM.Broadcast entry))
    in
    let send_prepare ctx ~self ~shard ~participants ~ptxn:(ptxn : Txn.t) =
      bcast ctx ~shard
        {
          Tob.origin = self;
          id =
            Shard.entry_id ~phase:`Prepare ~client:ptxn.Txn.client
              ~seq:ptxn.Txn.seq ~shard;
          payload = tob_payload_prepare ~coord:self ~shard ~participants ~ptxn;
        }
    in
    let arm_pump ctx =
      if (not !pump_armed) && not (Queue.is_empty pump) then begin
        pump_armed := true;
        ignore (R.set_timer ctx pump_interval "pump")
      end
    in
    let enqueue_decision ((shard, _, dtxn) as d : int * bool * Txn.t) =
      let k = (shard, (dtxn.Txn.client, dtxn.Txn.seq)) in
      if not (Hashtbl.mem queued k) then begin
        Hashtbl.replace queued k ();
        Queue.add d pump
      end
    in
    let decide ctx xid p ~commit =
      let parts =
        List.sort (fun (a, _) (b, _) -> compare a b) p.cp_parts
      in
      let votes =
        List.sort (fun (a, _) (b, _) -> compare a b) p.cp_votes
      in
      let outcome =
        if commit then
          (* Merged cross-shard result: each participant's trial rows,
             concatenated in shard order. *)
          Ok
            (List.concat_map
               (fun (_, v) ->
                 match v.Txn.outcome with Ok rows -> rows | Error _ -> [])
               votes)
        else
          Error
            (match
               List.find_opt
                 (fun (_, v) ->
                   match v.Txn.outcome with Error _ -> true | Ok _ -> false)
                 votes
             with
            | Some (_, v) -> (
                match v.Txn.outcome with Error e -> e | Ok _ -> "aborted")
            | None -> "2pc timeout")
      in
      let reply = { Txn.client = fst xid; seq = snd xid; outcome } in
      Hashtbl.replace decided xid
        { cd_commit = commit; cd_reply = reply; cd_parts = parts };
      decided_order := xid :: !decided_order;
      Hashtbl.remove pendings xid;
      Atomic.incr (if commit then committed else aborted);
      on_decide ~client:(fst xid) ~seq:(snd xid) ~commit;
      send_db ctx (fst xid) (Db_msg.Reply reply);
      List.iter (fun (s, dtxn) -> enqueue_decision (s, commit, dtxn)) parts;
      arm_pump ctx
    in
    fun ctx input ->
      let self = R.self ctx in
      match input with
      | R.Init ->
          (* A restarted coordinator re-broadcasts every journaled
             decision: participants still staged unlock, TOB dedup (the
             stable [Shard.entry_id]) absorbs the rest. Without a journal
             this is a no-op and staged participants hang until the
             timeout abort — the divergence the broken fixture exists to
             exhibit. *)
          List.iter
            (fun xid ->
              match Hashtbl.find_opt decided xid with
              | None -> ()
              | Some d ->
                  List.iter
                    (fun (s, dtxn) ->
                      enqueue_decision (s, d.cd_commit, dtxn))
                    d.cd_parts)
            (List.rev !decided_order);
          arm_pump ctx;
          ignore (R.set_timer ctx (pending_timeout /. 2.0) "expire")
      | R.Timer { tag = "pump"; _ } ->
          pump_armed := false;
          (match Queue.take_opt pump with
          | None -> ()
          | Some (shard, commit, dtxn) ->
              Hashtbl.remove queued (shard, (dtxn.Txn.client, dtxn.Txn.seq));
              bcast ctx ~shard
                {
                  Tob.origin = self;
                  id =
                    Shard.entry_id ~phase:`Decision ~client:dtxn.Txn.client
                      ~seq:dtxn.Txn.seq ~shard;
                  payload = tob_payload_decision ~shard ~commit ~dtxn;
                });
          arm_pump ctx
      | R.Timer { tag = "expire"; _ } ->
          (* Abort pendings that outlived the timeout. Always safe: no
             decision exists for them yet, so no participant can have
             committed. Covers lost prepares and lost no-votes. *)
          let now = R.time ctx in
          let stale =
            Hashtbl.fold
              (fun xid p acc ->
                if now -. p.cp_created > pending_timeout then (xid, p) :: acc
                else acc)
              pendings []
          in
          List.iter
            (fun (xid, p) -> decide ctx xid p ~commit:false)
            (List.sort (fun (a, _) (b, _) -> compare a b) stale);
          ignore (R.set_timer ctx (pending_timeout /. 2.0) "expire")
      | R.Timer _ -> ()
      | R.Recv { msg = Db (Db_msg.Client_txn txn); _ } -> (
          let xid = (txn.Txn.client, txn.Txn.seq) in
          match Hashtbl.find_opt decided xid with
          | Some d -> send_db ctx txn.Txn.client (Db_msg.Reply d.cd_reply)
          | None ->
              if not (Hashtbl.mem pendings xid) then (
                match Shard.route router txn with
                | Shard.Local s ->
                    (* Single-shard after all: inject into the owning
                       shard's TOB with the client's own entry identity,
                       so a direct client broadcast of the same
                       transaction dedups against it. *)
                    bcast ctx ~shard:s
                      {
                        Tob.origin = txn.Txn.client;
                        id = txn.Txn.seq;
                        payload = tob_payload_txn txn;
                      }
                | Shard.Distributed parts ->
                    let participants = List.map fst parts in
                    Hashtbl.replace pendings xid
                      {
                        cp_votes = [];
                        cp_parts = parts;
                        cp_participants = participants;
                        cp_created = R.time ctx;
                      };
                    List.iter
                      (fun (s, ptxn) ->
                        send_prepare ctx ~self ~shard:s ~participants ~ptxn)
                      parts))
      | R.Recv { msg = Db (Db_msg.Vote { shard; participants; vote; vtxn }); _ }
        -> (
          let xid = (vote.Txn.client, vote.Txn.seq) in
          match Hashtbl.find_opt decided xid with
          | Some d -> (
              (* The voter is still staged, waiting: re-send just that
                 shard's decision. *)
              match List.find_opt (fun (s, _) -> s = shard) d.cd_parts with
              | Some (s, dtxn) ->
                  enqueue_decision (s, d.cd_commit, dtxn);
                  arm_pump ctx
              | None -> ())
          | None ->
              let p =
                match Hashtbl.find_opt pendings xid with
                | Some p -> p
                | None ->
                    (* Unknown xid: a resent vote reaching a restarted
                       coordinator. The vote carries enough (participants
                       and the sub-transaction) to rebuild the pending
                       entry from scratch. *)
                    let p =
                      {
                        cp_votes = [];
                        cp_parts = [];
                        cp_participants = participants;
                        cp_created = R.time ctx;
                      }
                    in
                    Hashtbl.replace pendings xid p;
                    p
              in
              if not (List.mem_assoc shard p.cp_votes) then
                p.cp_votes <- (shard, vote) :: p.cp_votes;
              if not (List.mem_assoc shard p.cp_parts) then
                p.cp_parts <- (shard, vtxn) :: p.cp_parts;
              if p.cp_participants = [] then p.cp_participants <- participants;
              if
                p.cp_participants <> []
                && List.length p.cp_votes >= List.length p.cp_participants
              then
                let commit =
                  List.for_all
                    (fun (_, v) ->
                      match v.Txn.outcome with Ok _ -> true | Error _ -> false)
                    p.cp_votes
                in
                decide ctx xid p ~commit)
      | R.Recv _ -> ()

  type sharded_cluster = {
    sh_shards : int;
    sh_router : Shard.router;
    sh_coord : loc;
    sh_groups : smr_cluster array;
    sh_nodes : loc list;  (* coordinator first, then every replica *)
    sh_committed : unit -> int;
    sh_aborted : unit -> int;
  }

  let spawn_sharded ?(tun = default_tuning) ?backends
      ?(durability : (int -> durability option) = fun _ -> None)
      ?(costs = Broadcast.Shell.default_costs) ?tob_window
      ?(coord_journal = true) ?(pending_timeout = 1.5)
      ?(pump_interval = 0.005)
      ?(on_apply =
        fun ~shard:_ ~node:_ ~client:_ ~seq:_ ~commit:_ ~keys:_ -> ())
      ?(on_decide = fun ~client:_ ~seq:_ ~commit:_ -> ()) ~world ~registry
      ~setup ~router () =
    let shards = router.Shard.shards in
    if shards <= 0 then
      Sim.Invariant.fail "shard" "spawn_sharded: router.shards <= 0 (%d)" shards;
    let groups_ref = ref [||] in
    let members_of s =
      let gs = !groups_ref in
      if Array.length gs = 0 then [] else gs.(s).smr_nodes
    in
    let journal : coord_journal option =
      if coord_journal then Some (Hashtbl.create 64, ref []) else None
    in
    let committed = Atomic.make 0 and aborted = Atomic.make 0 in
    (* The coordinator spawns first so each shard group can close over
       its concrete location. *)
    let coord =
      R.spawn world ~name:"coord"
        (coord_handler ~router ~members_of ~journal ~pending_timeout
           ~pump_interval ~committed ~aborted ~on_decide)
    in
    let groups =
      Array.init shards (fun s ->
          spawn_smr_group ~name_prefix:(Printf.sprintf "sh%d-" s)
            ~x2pc:
              {
                xc_shard = s;
                xc_coord = coord;
                xc_keys_of = router.Shard.keys_of;
                xc_on_apply = on_apply;
              }
            ~tun ?backends ?durability:(durability s) ~costs ?tob_window
            ~world ~registry ~setup:(setup s) ~n_active:3 ())
    in
    groups_ref := groups;
    {
      sh_shards = shards;
      sh_router = router;
      sh_coord = coord;
      sh_groups = groups;
      sh_nodes =
        coord :: List.concat_map (fun g -> g.smr_nodes) (Array.to_list groups);
      sh_committed = (fun () -> Atomic.get committed);
      sh_aborted = (fun () -> Atomic.get aborted);
    }

  (* ------------------------------------------------------------------ *)
  (* Clients                                                             *)
  (* ------------------------------------------------------------------ *)

  type client_target =
    | To_pbr of pbr_cluster
    | To_smr of smr_cluster
    | To_sharded of sharded_cluster

  (* A closed-loop client: submits [count] transactions one at a time,
     resending (same sequence number — duplicates are suppressed
     downstream) with contact rotation on timeout. [on_commit time latency]
     fires per committed transaction; [make_txn ~client ~seq] supplies the
     procedure name and parameters. *)
  let spawn_clients ~world ~target ~n ~count ~make_txn
      ?(retry_timeout = 4.0) ?(on_commit = fun _ _ -> ()) () =
    let completed = Atomic.make 0 in
    let rotate contacts attempt =
      List.nth contacts (attempt mod List.length contacts)
    in
    let smr_entry (txn : Txn.t) =
      {
        Tob.origin = txn.Txn.client;
        id = txn.Txn.seq;
        payload = tob_payload_txn txn;
      }
    in
    (* [dispatch ctx ~attempt txn] routes one submission; [attempt]
       rotates contacts on retry. *)
    let dispatch =
      match target with
      | To_pbr c ->
          let all = c.pbr_replicas in
          (* Start at the initial primary; rotate over replicas on retry. *)
          let ordered =
            c.pbr_initial_primary
            :: List.filter (fun l -> l <> c.pbr_initial_primary) all
          in
          fun ctx ~attempt txn ->
            R.send ctx ~size:(Txn.size txn) (rotate ordered attempt)
              (Db (Db_msg.Client_txn txn))
      | To_smr c ->
          fun ctx ~attempt txn ->
            R.send ctx ~size:(Txn.size txn) (rotate c.smr_nodes attempt)
              (Svc (TM.Broadcast (smr_entry txn)))
      | To_sharded sc -> (
          fun ctx ~attempt txn ->
            match Shard.route sc.sh_router txn with
            | Shard.Local s ->
                (* Single-shard: straight into the owning shard's TOB,
                   bypassing the coordinator entirely. *)
                R.send ctx ~size:(Txn.size txn)
                  (rotate sc.sh_groups.(s).smr_nodes attempt)
                  (Svc (TM.Broadcast (smr_entry txn)))
            | Shard.Distributed _ ->
                (* Cross-shard: the 2PC coordinator owns it. *)
                R.send ctx ~size:(Txn.size txn) sc.sh_coord
                  (Db (Db_msg.Client_txn txn)))
    in
    let spawn_one _i =
      R.spawn world ~name:"db-client" (fun () ->
          let seq = ref 0 in
          let attempt = ref 0 in
          let sent_at = ref 0.0 in
          let timer = ref (-1) in
          let send ctx =
            let a = !attempt in
            incr attempt;
            sent_at := R.time ctx;
            let client = R.self ctx in
            let kind, params = make_txn ~client ~seq:!seq in
            let txn = { Txn.client; seq = !seq; kind; params } in
            dispatch ctx ~attempt:a txn;
            timer := R.set_timer ctx retry_timeout "retry"
          in
          fun ctx -> function
            | R.Init -> if count > 0 then send ctx
            | R.Recv { msg = Db (Db_msg.Reply reply); _ } ->
                if reply.Txn.seq = !seq then begin
                  R.cancel_timer ctx !timer;
                  let now = R.time ctx in
                  (* Deterministic aborts (e.g. TPC-C's 1% rollbacks) are
                     answered but not counted as commits. *)
                  (match reply.Txn.outcome with
                  | Ok _ -> on_commit now (now -. !sent_at)
                  | Error _ -> ());
                  incr seq;
                  (* Successful contact: stick with it next time. *)
                  attempt := !attempt - 1;
                  if !seq < count then send ctx
                  else Atomic.incr completed
                end
            | R.Recv _ -> ()
            | R.Timer { tag = "retry"; _ } ->
                (* Timeout: resend the same transaction; [send] advances
                   the rotation, so a dead contact is skipped. *)
                if !seq < count then send ctx
            | R.Timer _ -> ())
    in
    let ids = List.init n spawn_one in
    (ids, fun () -> Atomic.get completed)
end
