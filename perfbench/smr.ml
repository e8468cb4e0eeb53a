(* The socket workloads: a 3-node SMR bank cluster (2 active replicas)
   on the single-reactor event loop, driven by 16 closed-loop clients,
   with in-memory replicas ([smr_mem]) or replicas journaling to a file
   WAL ([smr_wal]).

   Every round deploys a fresh cluster, so rounds of one workload carry
   the same protocol history and a run is a sequence of identical
   experiments. The traced variant of a round wraps the codec, the
   registry procedures, the durable backends and every node handler
   (see {!Probe}); it never attaches a runtime tap, which would make the
   replicas compute extra state fingerprints. *)

module Sdb = Shadowdb.System.Make (Consensus.Paxos)
module TM = Sdb.TM
module Loop = Runtime.Loop
module Txn = Shadowdb.Txn
module Bank = Workload.Bank

let rows = 1_000
let n_active = 2
let deposit_amount = 1

(* Group commit of the drill's WAL path: sync after every 8 records. *)
let policy =
  { Durable.Manager.group_commit = 8; snapshot_every = 0; replay_tail = true }

(* ------------------------------------------------------------------ *)
(* Traced-run counters and per-transaction stage marks                 *)
(* ------------------------------------------------------------------ *)

(* First submission of (origin, id), set by the workload driving the
   round; [nan] when unknown. *)
let submitted_at : (int -> int -> float) ref = ref (fun _ _ -> nan)

(* Batches proposed per slot, learned from phase-2 requests on the wire. *)
let proposed : (int, Broadcast.Tob.batch) Hashtbl.t = Hashtbl.create 1024

let decided : (int * int, float) Hashtbl.t = Hashtbl.create 4096
let replied : (int * int, unit) Hashtbl.t = Hashtbl.create 4096
let slots : (int, unit) Hashtbl.t = Hashtbl.create 1024
let n_slots = ref 0
let batch_entries = ref 0
let core_msgs = ref 0
let append_bytes = ref 0
let order_lat = Hist.create ()  (* submission -> decision at an active smrN *)
let apply_lat = Hist.create ()  (* decision -> reply encoded *)
let sync_lat = Hist.create ()

(* Node ids and slot numbers restart with every cluster, so the tables
   are per round; the counters and histograms accumulate over a pass. *)
let reset_tables () =
  Hashtbl.reset proposed;
  Hashtbl.reset decided;
  Hashtbl.reset replied;
  Hashtbl.reset slots

let reset_marks () =
  reset_tables ();
  n_slots := 0;
  batch_entries := 0;
  core_msgs := 0;
  append_bytes := 0;
  List.iter Hist.clear [ order_lat; apply_lat; sync_lat ]

(* The pass totals of the counters above, in a form that can be merged
   across the processes of a run. *)
type marks = {
  m_slots : int;
  m_batch_entries : int;
  m_core_msgs : int;
  m_append_bytes : int;
  m_order_lat : Hist.t;
  m_apply_lat : Hist.t;
  m_sync_lat : Hist.t;
}

let marks () =
  {
    m_slots = !n_slots;
    m_batch_entries = !batch_entries;
    m_core_msgs = !core_msgs;
    m_append_bytes = !append_bytes;
    m_order_lat = order_lat;
    m_apply_lat = apply_lat;
    m_sync_lat = sync_lat;
  }

let merge_marks a b =
  let h x y =
    let m = Hist.create () in
    Hist.merge_into ~dst:m x;
    Hist.merge_into ~dst:m y;
    m
  in
  {
    m_slots = a.m_slots + b.m_slots;
    m_batch_entries = a.m_batch_entries + b.m_batch_entries;
    m_core_msgs = a.m_core_msgs + b.m_core_msgs;
    m_append_bytes = a.m_append_bytes + b.m_append_bytes;
    m_order_lat = h a.m_order_lat b.m_order_lat;
    m_apply_lat = h a.m_apply_lat b.m_apply_lat;
    m_sync_lat = h a.m_sync_lat b.m_sync_lat;
  }

(* Slot [s] is decided with batch [c]: mark each entry the first time. *)
let mark_decided s c =
  if not (Hashtbl.mem slots s) then begin
    Hashtbl.replace slots s ();
    incr n_slots;
    batch_entries := !batch_entries + List.length c;
    let now = Probe.now_s () in
    List.iter
      (fun (e : Broadcast.Tob.entry) ->
        let key = (e.origin, e.id) in
        if not (Hashtbl.mem decided key) then begin
          Hashtbl.replace decided key now;
          let t = !submitted_at e.origin e.id in
          if not (Float.is_nan t) then Hist.add order_lat (now -. t)
        end)
      c
  end

(* A slot is decided when the leader holds a quorum of phase-2 replies —
   its own vote is short-circuited, so the first remote P2b completes the
   quorum of two — or when the Decision reaches an active replica,
   whichever is seen first. *)
let mark_decision (input : Sdb.wire Runtime.input) =
  match input with
  | Runtime.Recv
      { msg = Sdb.Svc (TM.Core (Consensus.Paxos_msg.Decision { s; c })); _ }
    ->
      mark_decided s c
  | Runtime.Recv
      { msg = Sdb.Svc (TM.Core (Consensus.Paxos_msg.P2b { s; _ })); _ } -> (
      match Hashtbl.find_opt proposed s with
      | Some c -> mark_decided s c
      | None -> ())
  | _ -> ()

let mark_send (m : Sdb.wire) =
  match m with
  | Sdb.Svc (TM.Core (Consensus.Paxos_msg.P2a { pv; _ })) ->
      incr core_msgs;
      if not (Hashtbl.mem proposed pv.Consensus.Paxos_msg.s) then
        Hashtbl.replace proposed pv.s pv.c
  | Sdb.Svc (TM.Core _) -> incr core_msgs
  | Sdb.Db (Shadowdb.Db_msg.Reply r) ->
      let key = (r.Txn.client, r.Txn.seq) in
      if not (Hashtbl.mem replied key) then begin
        Hashtbl.replace replied key ();
        match Hashtbl.find_opt decided key with
        | Some t -> Hist.add apply_lat (Probe.now_s () -. t)
        | None -> ()
      end
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Wrappers over the closures the public API hands out                 *)
(* ------------------------------------------------------------------ *)

let traced_codec (c : Sdb.wire Runtime.codec) : Sdb.wire Runtime.codec =
  {
    Runtime.enc =
      (fun m ->
        mark_send m;
        Probe.span Probe.Enc (fun () -> c.Runtime.enc m));
    dec = (fun s -> Probe.span Probe.Dec (fun () -> c.Runtime.dec s));
  }

(* Node names: [smrN] for replicas (the first [n_active] execute),
   anything else is load. *)
let replica_index name =
  if String.length name > 3 && String.sub name 0 3 = "smr" then
    int_of_string_opt (String.sub name 3 (String.length name - 3))
  else None

let traced_world (w : Sdb.wire Runtime.t) : Sdb.wire Runtime.t =
  {
    w with
    Runtime.rt_spawn =
      (fun ~name ~cpu_factor factory ->
        let layer, active =
          match replica_index name with
          | Some i -> (Probe.Smr, i < n_active)
          | None -> (Probe.Client, false)
        in
        w.Runtime.rt_spawn ~name ~cpu_factor (fun () ->
            let h = factory () in
            fun ctx input ->
              if active then mark_decision input;
              Probe.span layer (fun () -> h ctx input)));
  }

let bank_kinds = [ "deposit"; "balance"; "transfer"; "withdraw"; "audit" ]

let traced_registry () =
  let base = Bank.registry () in
  Txn.registry
    (List.filter_map
       (fun k ->
         Option.map
           (fun p -> (k, fun db ps -> Probe.span Probe.Storage (fun () -> p db ps)))
           (Txn.lookup base k))
       bank_kinds)

let traced_backend (b : Durable.Backend.t) : Durable.Backend.t =
  {
    b with
    Durable.Backend.log_append =
      (fun s ->
        append_bytes := !append_bytes + String.length s;
        Probe.span Probe.Wal_append (fun () -> b.Durable.Backend.log_append s));
    log_sync =
      (fun () ->
        let (), ns = Probe.timed Probe.Wal_sync b.Durable.Backend.log_sync in
        Hist.add sync_lat (float_of_int ns *. 1e-9));
  }

(* ------------------------------------------------------------------ *)
(* Cluster                                                             *)
(* ------------------------------------------------------------------ *)

type cluster = {
  rt : Sdb.wire Loop.t;
  world : Sdb.wire Runtime.t;
  c : Sdb.smr_cluster;
  backends : Durable.Backend.t list ref;  (* live WAL backends, to close *)
  wal : string option;
}

let node_dir dir i = Filename.concat dir (Printf.sprintf "node%d" i)

(* Spawn and start a cluster, returning once every replica has loaded the
   bank table (replica state is built on a node's first event). *)
let deploy ~traced ~wal =
  let codec =
    Sdb.wire_codec ~enc_core:Shadowdb.Codec.encode_core_paxos
      ~dec_core:Shadowdb.Codec.decode_core_paxos
  in
  let rt = Loop.create ~codec:(if traced then traced_codec codec else codec) () in
  let world =
    if traced then traced_world (Loop.runtime rt) else Loop.runtime rt
  in
  let backends = ref [] in
  let durability =
    Option.map
      (fun dir ->
        {
          Sdb.dur_backend =
            (fun i ->
              let b = Durable.File.create ~dir:(node_dir dir i) () in
              backends := b :: !backends;
              if traced then traced_backend b else b);
          dur_policy = (fun _ -> policy);
          dur_on_recover = (fun _ _ ~state_hash:_ -> ());
        })
      wal
  in
  let c =
    Sdb.spawn_smr ~world ?durability
      ~registry:(if traced then traced_registry else Bank.registry)
      ~setup:(Bank.setup ~rows) ~n_active ()
  in
  Loop.start rt;
  let up =
    Loop.await ~timeout:30.0 rt (fun () ->
        List.for_all
          (fun l -> c.Sdb.smr_db_view l (fun _ -> true) ~default:false)
          c.Sdb.smr_nodes)
  in
  if not up then failwith "cluster did not initialize within 30 s";
  { rt; world; c; backends; wal }

let actives cl = List.filteri (fun i _ -> i < n_active) cl.c.Sdb.smr_nodes

(* Wait until every active replica has applied [commits] transactions. *)
let settle cl ~commits =
  Loop.await ~timeout:30.0 ~poll:0.0005 cl.rt (fun () ->
      List.for_all (fun l -> cl.c.Sdb.smr_gseq_of l >= commits) (actives cl))

let initial_total =
  lazy
    (let db = Storage.Database.create Storage.Store.Hazel in
     Bank.setup ~rows db;
     Bank.total_balance db)

(* Rebuild a replica's state from its WAL directory through the durable
   manager's recovery path. *)
let recover_dir dir =
  let b = Durable.File.create ~dir () in
  let db = Storage.Database.create Storage.Store.Hazel in
  Bank.setup ~rows db;
  let reg = Bank.registry () in
  let _, report =
    Fun.protect
      ~finally:(fun () -> b.Durable.Backend.close ())
      (fun () ->
        Durable.Manager.recover b policy
          ~install:(fun _ -> failwith "unexpected snapshot in WAL dir")
          ~apply:(fun w ->
            match Shadowdb.System.decode_payload w.Durable.Wal.payload with
            | Shadowdb.System.P_txn txn -> ignore (Txn.execute reg db txn)
            | _ -> ()))
  in
  (report, Storage.Database.content_hash db)

(* Correctness of a stopped cluster after [commits] committed deposits:
   replica agreement, conservation of money, no runtime errors, and (with
   a WAL) recovery of each active replica's directory to its live state.
   Returns the failed checks. *)
let verify cl ~commits =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  let c = cl.c in
  let act = actives cl in
  List.iter
    (fun l -> if not (c.Sdb.smr_active_of l) then fail "replica %d not active" l)
    act;
  (match act with
  | a :: rest ->
      List.iter
        (fun b ->
          if c.Sdb.smr_gseq_of a <> c.Sdb.smr_gseq_of b then
            fail "gseq differs: %d vs %d" (c.Sdb.smr_gseq_of a)
              (c.Sdb.smr_gseq_of b);
          if c.Sdb.smr_hash_of a <> c.Sdb.smr_hash_of b then
            fail "state hash differs between replicas %d and %d" a b)
        rest
  | [] -> fail "no active replica");
  List.iter
    (fun l ->
      let g = c.Sdb.smr_gseq_of l in
      if g <> commits then fail "replica %d applied %d, expected %d" l g commits;
      let total = c.Sdb.smr_db_view l Bank.total_balance ~default:(-1) in
      let want = Lazy.force initial_total + (deposit_amount * commits) in
      if total <> want then
        fail "replica %d total balance %d, expected %d" l total want)
    act;
  List.iter (fun e -> fail "runtime error: %s" e) (Loop.errors cl.rt);
  (match cl.wal with
  | None -> ()
  | Some dir ->
      List.iteri
        (fun i l ->
          let rep, hash = recover_dir (node_dir dir i) in
          let g = c.Sdb.smr_gseq_of l and h = c.Sdb.smr_hash_of l in
          if rep.Durable.Manager.recovered_aux <> g then
            fail "node%d WAL recovered %d txns, live %d" i
              rep.Durable.Manager.recovered_aux g;
          (* Every delivery is a transaction, so the last total-order
             position is the applied count minus one. *)
          if rep.Durable.Manager.recovered_idx <> g - 1 then
            fail "node%d WAL recovered position %d, live %d" i
              rep.Durable.Manager.recovered_idx (g - 1);
          if rep.Durable.Manager.recovered_hash <> h then
            fail "node%d WAL fingerprint differs from live state" i;
          if hash <> h then fail "node%d WAL replay differs from live state" i)
        act);
  List.rev !fails

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

(* What one round measured. [wall] runs from the first submission to
   the stopped cluster (the traced accounting window); [commit_window]
   from the first submission to the last commit. *)
type round = {
  setup : float;
  commits : int;
  attempted : int;
  retries : int;
  commit_window : float;
  lat : Hist.t;  (* the round's commit latencies, seconds *)
  wall : float;
  stats : Loop.stats;  (* deltas over [wall] *)
  peak_outbox : int;
  gc : Gc.stat * Gc.stat;  (* at the start and end of [wall] *)
  retained_words : int;
      (* traced rounds: live words after the round (full major, cluster
         still referenced) minus live words at the window's start *)
  replicas : (int * int) list;  (* active replicas' (applied count, hash) *)
  fails : string list;
}

let stats_delta (a : Loop.stats) (b : Loop.stats) =
  {
    b with
    Loop.s_sent_msgs = b.Loop.s_sent_msgs - a.Loop.s_sent_msgs;
    s_sent_bytes = b.s_sent_bytes - a.s_sent_bytes;
    s_delivered_msgs = b.s_delivered_msgs - a.s_delivered_msgs;
    s_flush_writes = b.s_flush_writes - a.s_flush_writes;
    s_flushed_bytes = b.s_flushed_bytes - a.s_flushed_bytes;
    s_backpressure = b.s_backpressure - a.s_backpressure;
    s_parked = b.s_parked - a.s_parked;
  }

(* Open the accounting window: reset the layer timers at a moment when
   no wrapped closure is running on the reactor. *)
let open_window ~traced rt =
  let live0 = if traced then (Gc.stat ()).Gc.live_words else 0 in
  while !Probe.depth <> 0 do
    Thread.yield ()
  done;
  Probe.reset ();
  (Loop.stats rt, Gc.quick_stat (), live0, Probe.now_s ())

(* Seeded uniform account choice per (round, client, seq). *)
let accounts ~seed ~round ~client ~count =
  let rng = Sim.Prng.create ((seed * 1_000_003) + (round * 1_009) + client) in
  Array.init count (fun _ -> Sim.Prng.int rng rows)

(* One round: [clients] closed-loop clients, [count] deposits each,
   against in-memory replicas or, with [wal], replicas journaling to file
   WALs under that directory. Latency runs from a transaction's first
   submission to its commit; a resubmission counts as a retry. *)
let closed_round ?wal ~traced ~seed ~round ~clients ~count () =
  reset_tables ();
  Gc.compact ();
  let s0 = Probe.now_s () in
  let cl = deploy ~traced ~wal in
  let setup = Probe.now_s () -. s0 in
  let commits = ref 0 and retries = ref 0 and last_commit = ref 0.0 in
  let lat = Hist.create () in
  let firsts = Hashtbl.create clients in
  (submitted_at :=
     fun origin id ->
       match Hashtbl.find_opt firsts origin with
       | Some a when id >= 0 && id < count -> Float.Array.get a id
       | _ -> nan);
  let stats0, gc0, live0, t0 = open_window ~traced cl.rt in
  let done_ =
    List.init clients (fun k ->
        let first = Float.Array.make count nan in
        let acct = accounts ~seed ~round ~client:k ~count in
        let cur = ref 0 in
        let make_txn ~client ~seq =
          if Float.is_nan (Float.Array.get first seq) then begin
            Float.Array.set first seq (Probe.now_s ());
            if seq = 0 then Hashtbl.replace firsts client first
          end
          else incr retries;
          cur := seq;
          Bank.deposit ~account:acct.(seq) ~amount:deposit_amount
        in
        let on_commit _ _ =
          let now = Probe.now_s () in
          Hist.add lat (now -. Float.Array.get first !cur);
          incr commits;
          last_commit := now
        in
        snd
          (Sdb.spawn_clients ~world:cl.world ~target:(Sdb.To_smr cl.c) ~n:1
             ~count ~make_txn ~on_commit ()))
  in
  let completed =
    Loop.await ~timeout:120.0 ~poll:0.005 cl.rt (fun () ->
        List.for_all (fun d -> d () >= 1) done_)
  in
  let commits = !commits in
  let settled = completed && settle cl ~commits in
  Loop.stop cl.rt;
  List.iter (fun b -> b.Durable.Backend.close ()) !(cl.backends);
  let t_end = Probe.now_s () in
  let stats1 = Loop.stats cl.rt in
  let gc1 = Gc.quick_stat () in
  let retained_words =
    if traced then begin
      Gc.full_major ();
      (Gc.stat ()).Gc.live_words - live0
    end
    else 0
  in
  let fails =
    (if completed then [] else [ "load did not complete within its timeout" ])
    @ (if settled || not completed then []
       else [ "replicas did not apply every commit within 30 s" ])
    @ verify cl ~commits
  in
  {
    setup;
    commits;
    attempted = clients * count;
    retries = !retries;
    commit_window = !last_commit -. t0;
    lat;
    wall = t_end -. t0;
    stats = stats_delta stats0 stats1;
    peak_outbox = stats1.Loop.s_peak_outbox_bytes;
    gc = (gc0, gc1);
    retained_words;
    replicas =
      List.map
        (fun l -> (cl.c.Sdb.smr_gseq_of l, cl.c.Sdb.smr_hash_of l))
        (actives cl);
    fails;
  }
