(* End-to-end tests for ShadowDB on the simulator: PBR normal case and
   recovery (catch-up and snapshot paths), SMR normal case, crash
   transparency and spare activation, exactly-once under client retries,
   durability, state agreement across diverse backends, and pinned
   virtual-time outcomes per replication style. *)

module Engine = Sim.Engine
module Store = Storage.Store
module S = Shadowdb.System.Make (Consensus.Paxos)
module Txn = Shadowdb.Txn
module Value = Storage.Value

let rows = 200 (* scaled-down accounts table for fast tests *)

let fast_tun =
  {
    Shadowdb.System.default_tuning with
    hb_interval = 0.05;
    detect_timeout = 0.4;
  }

(* Deterministic per (client, seq): retries resend the same transaction. *)
let make_deposit ~client ~seq =
  let account = abs (Hashtbl.hash (client, seq)) mod rows in
  Workload.Bank.deposit ~account ~amount:1

let setup db = Workload.Bank.setup ~rows db

let pbr_world ?(backends = [ Store.Hazel ]) ?(tun = fast_tun) ?cache_cap
    ?(n_active = 2) ?(n_spare = 1) () =
  let tun =
    match cache_cap with
    | Some cap -> { tun with cache_cap = cap }
    | None -> tun
  in
  let world : S.wire Engine.t = Engine.create ~seed:3 () in
  let cluster =
    S.spawn_pbr ~tun ~backends ~world:(Runtime.Of_sim.of_engine world) ~registry:Workload.Bank.registry ~setup
      ~n_active ~n_spare ()
  in
  (world, cluster)

let run_pbr ?backends ?cache_cap ?crash_at ~n_clients ~count () =
  let world, cluster = pbr_world ?backends ?cache_cap () in
  let commits = ref 0 in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:n_clients ~count
      ~make_txn:make_deposit ~retry_timeout:1.0
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  (match crash_at with
  | Some t ->
      Engine.at world t (fun () ->
          Engine.crash world cluster.S.pbr_initial_primary)
  | None -> ());
  Engine.run ~until:120.0 ~max_events:10_000_000 world;
  (world, cluster, completed (), !commits)

let check_pbr_agreement world cluster =
  let alive =
    List.filter (Engine.is_alive world) cluster.S.pbr_replicas
  in
  (* Among alive replicas, those in the final configuration must agree. *)
  let primary = cluster.S.pbr_primary_of (List.hd alive) in
  let in_final =
    List.filter (fun l -> cluster.S.pbr_gseq_of l = cluster.S.pbr_gseq_of primary) alive
  in
  let hashes = List.map cluster.S.pbr_hash_of in_final in
  match hashes with
  | h :: rest ->
      List.iteri
        (fun i h' ->
          Alcotest.(check int) (Printf.sprintf "replica %d state agrees" i) h h')
        rest
  | [] -> Alcotest.fail "no replicas alive"

let test_pbr_normal_case () =
  let world, cluster, completed, commits = run_pbr ~n_clients:3 ~count:20 () in
  Alcotest.(check int) "all clients completed" 3 completed;
  Alcotest.(check int) "every txn committed exactly once" 60 commits;
  Alcotest.(check int) "primary executed 60 txns" 60
    (cluster.S.pbr_gseq_of cluster.S.pbr_initial_primary);
  check_pbr_agreement world cluster

let test_pbr_diverse_backends_agree () =
  let world, cluster, completed, _ =
    run_pbr ~backends:[ Store.Hazel; Store.Hickory; Store.Dogwood ]
      ~n_clients:2 ~count:15 ()
  in
  Alcotest.(check int) "completed" 2 completed;
  check_pbr_agreement world cluster

let test_pbr_exactly_once_under_retries () =
  (* An aggressive client retry timeout forces duplicate submissions; the
     per-client dedup table must keep execution exactly-once. *)
  let world, cluster = pbr_world () in
  let commits = ref 0 in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:2 ~count:25
      ~make_txn:make_deposit ~retry_timeout:0.002
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  Engine.run ~until:120.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "completed" 2 (completed ());
  Alcotest.(check int) "commits" 50 !commits;
  Alcotest.(check int) "executed exactly 50 despite duplicates" 50
    (cluster.S.pbr_gseq_of cluster.S.pbr_initial_primary);
  check_pbr_agreement world cluster

let test_pbr_failover_catchup () =
  (* Crash the primary mid-run: the backup (largest sequence number) takes
     over, the spare joins via the transaction cache, clients finish. *)
  let world, cluster, completed, commits =
    run_pbr ~crash_at:1.0 ~n_clients:3 ~count:30 ()
  in
  Alcotest.(check int) "all clients completed despite crash" 3 completed;
  Alcotest.(check int) "all commits observed" 90 commits;
  let survivor = List.nth cluster.S.pbr_replicas 1 in
  let new_primary = cluster.S.pbr_primary_of survivor in
  Alcotest.(check bool) "primary moved off the crashed node" true
    (new_primary <> cluster.S.pbr_initial_primary);
  Alcotest.(check bool) "new primary alive" true
    (Engine.is_alive world new_primary);
  check_pbr_agreement world cluster

let test_pbr_failover_snapshot_path () =
  (* A tiny transaction cache forces the full-snapshot state transfer. *)
  let world, cluster, completed, _ =
    run_pbr ~cache_cap:2 ~crash_at:1.0 ~n_clients:3 ~count:30 ()
  in
  Alcotest.(check int) "completed via snapshot recovery" 3 completed;
  check_pbr_agreement world cluster

let test_pbr_durability () =
  (* Every answered deposit survives the crash: final total balance =
     initial + #commits (deposits are +1 each). *)
  let world, cluster, completed, commits =
    run_pbr ~crash_at:1.0 ~n_clients:2 ~count:40 ()
  in
  Alcotest.(check int) "completed" 2 completed;
  ignore world;
  let survivor = List.nth cluster.S.pbr_replicas 1 in
  Alcotest.(check int) "gseq reflects every commit" commits
    (cluster.S.pbr_gseq_of survivor)

let test_pbr_overlapped_state_transfer () =
  (* Three actives + spare, tiny cache: after the primary crash the
     up-to-date backup catches up from the cache and normal processing
     resumes immediately, while the spare's full snapshot streams in
     parallel (paper Sec. III-A last paragraph). *)
  let world, cluster = pbr_world ~cache_cap:10 ~n_active:3 ~n_spare:1 () in
  let commits = ref 0 in
  let first_post_crash = ref infinity in
  let crash_at = 0.2 in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:3 ~count:5000
      ~make_txn:make_deposit ~retry_timeout:0.5
      ~on_commit:(fun now _ ->
        incr commits;
        if now > crash_at && now < !first_post_crash then
          first_post_crash := now)
      ()
  in
  Engine.at world crash_at (fun () ->
      Engine.crash world cluster.S.pbr_initial_primary);
  (* Track when the spare (last replica) finishes its snapshot. *)
  let spare = List.nth cluster.S.pbr_replicas 3 in
  let spare_synced_at = ref infinity in
  let rec poll t =
    if t < 60.0 then
      Engine.at world t (fun () ->
          let survivor = List.nth cluster.S.pbr_replicas 1 in
          if
            !spare_synced_at = infinity
            && cluster.S.pbr_gseq_of spare > 0
            && cluster.S.pbr_gseq_of spare
               >= cluster.S.pbr_gseq_of survivor - 5
          then spare_synced_at := Engine.now world;
          poll (t +. 0.02))
  in
  poll (crash_at +. 0.05);
  Engine.run ~until:60.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "all clients completed" 3 (completed ());
  Alcotest.(check int) "commits" 15_000 !commits;
  Alcotest.(check bool) "normal processing resumed" true
    (!first_post_crash < infinity);
  Alcotest.(check bool) "spare eventually synced" true
    (!spare_synced_at < infinity);
  check_pbr_agreement world cluster

(* ---------- Chain replication ---------- *)

let chain_world ?(n_active = 3) () =
  let world : S.wire Engine.t = Engine.create ~seed:9 () in
  let cluster =
    S.spawn_chain ~read_kinds:[ "balance" ] ~tun:fast_tun ~world:(Runtime.Of_sim.of_engine world)
      ~registry:Workload.Bank.registry ~setup ~n_active ~n_spare:1 ()
  in
  (world, cluster)

(* Clients alternate deposits and balance reads; reads are answered by the
   tail, writes traverse the whole chain. *)
let make_mixed ~client ~seq =
  if seq mod 3 = 2 then
    Workload.Bank.balance ~account:(abs (Hashtbl.hash (client, seq)) mod rows)
  else make_deposit ~client ~seq

let test_chain_normal_case () =
  let world, cluster = chain_world () in
  let commits = ref 0 in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:3 ~count:30
      ~make_txn:make_mixed ~retry_timeout:1.0
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  Engine.run ~until:120.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "all clients completed" 3 (completed ());
  Alcotest.(check int) "all answered" 90 !commits;
  (* Writes executed at every chain member (reads don't advance gseq). *)
  let writes = 3 * 30 * 2 / 3 in
  List.iteri
    (fun i l ->
      if i < 3 then
        Alcotest.(check int)
          (Printf.sprintf "chain member %d executed all writes" i)
          writes (cluster.S.pbr_gseq_of l))
    cluster.S.pbr_replicas;
  check_pbr_agreement world cluster

let test_chain_tail_reply_implies_all_executed () =
  (* The tail's reply is the commit point: when a client has an answer for
     write seq s, every member's database already reflects it. A quiescent
     run ending in agreement across all three members demonstrates it
     (stronger interleaved checks poll below). *)
  let world, cluster = chain_world () in
  let max_seen = ref 0 in
  let violated = ref false in
  let head = List.hd cluster.S.pbr_replicas in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:2 ~count:25
      ~make_txn:make_deposit ~retry_timeout:1.0
      ~on_commit:(fun _ _ ->
        incr max_seen;
        (* At every commit, the head must have executed at least as many
           writes as have been answered. *)
        if cluster.S.pbr_gseq_of head < !max_seen then violated := true)
      ()
  in
  Engine.run ~until:120.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "completed" 2 (completed ());
  Alcotest.(check bool) "head never behind the commit point" false !violated

let test_chain_head_crash_recovery () =
  let world, cluster = chain_world () in
  let commits = ref 0 in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:3 ~count:2000
      ~make_txn:make_deposit ~retry_timeout:0.5
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  Engine.at world 0.2 (fun () ->
      Engine.crash world (List.hd cluster.S.pbr_replicas));
  Engine.run ~until:120.0 ~max_events:20_000_000 world;
  Alcotest.(check int) "all clients completed despite head crash" 3
    (completed ());
  Alcotest.(check int) "every txn answered exactly once" 6000 !commits;
  check_pbr_agreement world cluster

(* ---------- SMR ---------- *)

let smr_world ?(tun = fast_tun) () =
  let world : S.wire Engine.t = Engine.create ~seed:5 () in
  let cluster =
    S.spawn_smr ~tun ~world:(Runtime.Of_sim.of_engine world) ~registry:Workload.Bank.registry ~setup
      ~n_active:2 ()
  in
  (world, cluster)

let run_smr ?crash_at ~n_clients ~count () =
  let world, cluster = smr_world () in
  let commits = ref 0 in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_smr cluster) ~n:n_clients ~count
      ~make_txn:make_deposit ~retry_timeout:1.0
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  (match crash_at with
  | Some t ->
      Engine.at world t (fun () ->
          Engine.crash world (List.hd cluster.S.smr_nodes))
  | None -> ());
  Engine.run ~until:120.0 ~max_events:10_000_000 world;
  (world, cluster, completed (), !commits)

let smr_active_hashes world cluster =
  cluster.S.smr_nodes
  |> List.filter (fun l ->
         Engine.is_alive world l && cluster.S.smr_active_of l)
  |> List.map cluster.S.smr_hash_of

let test_smr_normal_case () =
  let world, cluster, completed, commits = run_smr ~n_clients:3 ~count:20 () in
  Alcotest.(check int) "completed" 3 completed;
  Alcotest.(check int) "commits" 60 commits;
  (match smr_active_hashes world cluster with
  | h :: rest ->
      Alcotest.(check int) "two active replicas" 1 (List.length rest);
      List.iter (fun h' -> Alcotest.(check int) "states agree" h h') rest
  | [] -> Alcotest.fail "no active replicas")

let test_smr_crash_transparent () =
  (* Crash one active replica: the survivor answers; clients never stall
     (the paper: "a crash of a replica is transparent"). *)
  let world, cluster, completed, commits =
    run_smr ~crash_at:0.5 ~n_clients:3 ~count:25 ()
  in
  Alcotest.(check int) "completed through crash" 3 completed;
  Alcotest.(check int) "commits" 75 commits;
  ignore (world, cluster)

let test_smr_spare_activation () =
  (* After the crash the survivor reconfigures: the third machine's spare
     database syncs a snapshot and becomes active with an equal state. *)
  let world, cluster, completed, _ =
    run_smr ~crash_at:0.5 ~n_clients:2 ~count:40 ()
  in
  Alcotest.(check int) "completed" 2 completed;
  (* Drain any in-flight sync after the last client finished. *)
  Engine.run ~until:200.0 ~max_events:10_000_000 world;
  let actives =
    List.filter
      (fun l -> Engine.is_alive world l && cluster.S.smr_active_of l)
      cluster.S.smr_nodes
  in
  Alcotest.(check int) "spare activated: two active replicas" 2
    (List.length actives);
  match List.map cluster.S.smr_hash_of actives with
  | [ a; b ] -> Alcotest.(check int) "synced spare agrees" a b
  | _ -> Alcotest.fail "unexpected active set"

(* ---------- Randomized failure injection ---------- *)

(* Crash one arbitrary node (any replica, the spare, or a broadcast-service
   member) at an arbitrary time: clients must still finish with every
   transaction committed exactly once, and the surviving replicas of the
   final configuration must agree. *)
let prop_pbr_random_crash =
  QCheck.Test.make ~name:"PBR survives any single crash (random schedule)"
    ~count:12
    QCheck.(pair (int_bound 5) (float_bound_exclusive 1.5))
    (fun (victim_idx, crash_at) ->
      let world, cluster = pbr_world () in
      let commits = ref 0 in
      let _, completed =
        S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:2 ~count:2500
          ~make_txn:make_deposit ~retry_timeout:0.5
          ~on_commit:(fun _ _ -> incr commits)
          ()
      in
      let victims = cluster.S.pbr_replicas @ cluster.S.pbr_tob in
      let victim = List.nth victims (victim_idx mod List.length victims) in
      Engine.at world (0.05 +. crash_at) (fun () -> Engine.crash world victim);
      Engine.run ~until:300.0 ~max_events:20_000_000 world;
      if completed () <> 2 || !commits <> 5000 then
        QCheck.Test.fail_reportf
          "victim node %d at %.3f s: completed=%d commits=%d" victim
          (0.05 +. crash_at) (completed ()) !commits;
      check_pbr_agreement world cluster;
      true)

let prop_smr_random_crash =
  QCheck.Test.make ~name:"SMR survives any single crash (random schedule)"
    ~count:10
    QCheck.(pair (int_bound 2) (float_bound_exclusive 1.0))
    (fun (victim_idx, crash_at) ->
      let world, cluster = smr_world () in
      let commits = ref 0 in
      let _, completed =
        S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_smr cluster) ~n:2 ~count:150
          ~make_txn:make_deposit ~retry_timeout:0.5
          ~on_commit:(fun _ _ -> incr commits)
          ()
      in
      let victim = List.nth cluster.S.smr_nodes victim_idx in
      Engine.at world (0.02 +. crash_at) (fun () -> Engine.crash world victim);
      Engine.run ~until:300.0 ~max_events:20_000_000 world;
      if completed () <> 2 || !commits <> 300 then
        QCheck.Test.fail_reportf
          "victim node %d at %.3f s: completed=%d commits=%d" victim
          (0.02 +. crash_at) (completed ()) !commits;
      true)

let test_pbr_empty_db_state_transfer () =
  (* An empty database dumps no rows; the full-snapshot transfer must
     still send a final chunk, or the spare never reports Recovered and
     the primary waits for it forever. Every deposit aborts (no
     accounts), but each one is still answered and executed. *)
  let world : S.wire Engine.t = Engine.create ~seed:3 () in
  let cluster =
    S.spawn_pbr ~tun:{ fast_tun with cache_cap = 2 }
      ~world:(Runtime.Of_sim.of_engine world)
      ~registry:Workload.Bank.registry
      ~setup:(Workload.Bank.setup ~rows:0)
      ~n_active:2 ~n_spare:1 ()
  in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world)
      ~target:(S.To_pbr cluster) ~n:2 ~count:3000 ~make_txn:make_deposit
      ~retry_timeout:0.5 ()
  in
  let backup = List.nth cluster.S.pbr_replicas 1 in
  Engine.at world 0.2 (fun () -> Engine.crash world backup);
  Engine.run ~until:120.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "all clients completed" 2 (completed ());
  let primary = cluster.S.pbr_initial_primary in
  let spare = List.nth cluster.S.pbr_replicas 2 in
  Alcotest.(check int) "spare caught up" 6000 (cluster.S.pbr_gseq_of spare);
  Alcotest.(check int) "primary executed everything" 6000
    (cluster.S.pbr_gseq_of primary)

(* ---------- Pinned virtual-time results ---------- *)

(* Exact outcome of one fixed-seed run per replication style, failover
   included: every replica's executed count and state hash, the virtual
   time of the last commit (bit-exact) and the number of simulator
   events. A change to CPU charges or message order that shifts virtual
   time fails these. *)
let pinned world ~replicas ~gseq_of ~hash_of ~last_commit =
  List.map (fun l -> Printf.sprintf "%d:%d" (gseq_of l) (hash_of l)) replicas
  @ [
      Printf.sprintf "last=%h" last_commit;
      Printf.sprintf "events=%d" (Engine.events_processed world);
    ]

let pin_clients world target ~n ~count ~make_txn =
  let last = ref 0.0 in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target ~n ~count
      ~make_txn ~retry_timeout:0.5
      ~on_commit:(fun now _ -> last := now)
      ()
  in
  (completed, last)

let check_pin name expected actual =
  Alcotest.(check (list string)) (name ^ " pinned") expected actual

let pin_pbr ?cache_cap () =
  let world, c = pbr_world ?cache_cap () in
  let completed, last =
    pin_clients world (S.To_pbr c) ~n:2 ~count:200 ~make_txn:make_deposit
  in
  Engine.at world 0.05 (fun () -> Engine.crash world c.S.pbr_initial_primary);
  Engine.run ~until:30.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "completed" 2 (completed ());
  pinned world ~replicas:c.S.pbr_replicas ~gseq_of:c.S.pbr_gseq_of
    ~hash_of:c.S.pbr_hash_of ~last_commit:!last

let test_pin_pbr_catchup () =
  check_pin "pbr catch-up"
    [
      "117:4181078861413313671";
      "400:-4240914645076726038";
      "400:-4240914645076726038";
      "last=0x1.2db1fd2378cfep+0";
      "events=10922";
    ] (pin_pbr ())

let test_pin_pbr_snapshot () =
  check_pin "pbr snapshot"
    [
      "117:4181078861413313671";
      "400:-4240914645076726038";
      "400:-4240914645076726038";
      "last=0x1.2e3db2f7bcb86p+0";
      "events=10922";
    ] (pin_pbr ~cache_cap:2 ())

let test_pin_chain () =
  let world, c = chain_world () in
  let completed, last =
    pin_clients world (S.To_pbr c) ~n:2 ~count:300 ~make_txn:make_mixed
  in
  Engine.at world 0.05 (fun () ->
      Engine.crash world (List.hd c.S.pbr_replicas));
  Engine.run ~until:30.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "completed" 2 (completed ());
  check_pin "chain"
    [
      "86:4035500052279799203";
      "400:-2103636525889354618";
      "400:-2103636525889354618";
      "400:-2103636525889354618";
      "last=0x1.404a89168211ep+0";
      "events=18999";
    ]
    (pinned world ~replicas:c.S.pbr_replicas ~gseq_of:c.S.pbr_gseq_of
       ~hash_of:c.S.pbr_hash_of ~last_commit:!last)

let test_pin_smr () =
  let world, c = smr_world () in
  let completed, last =
    pin_clients world (S.To_smr c) ~n:2 ~count:200 ~make_txn:make_deposit
  in
  Engine.at world 0.05 (fun () -> Engine.crash world (List.hd c.S.smr_nodes));
  Engine.run ~until:30.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "completed" 2 (completed ());
  check_pin "smr"
    [
      "5:2362188647411626470";
      "401:788273708278664358";
      "401:788273708278664358";
      "last=0x1.145056896a38p+2";
      "events=13707";
    ]
    (pinned world ~replicas:c.S.smr_nodes ~gseq_of:c.S.smr_gseq_of
       ~hash_of:c.S.smr_hash_of ~last_commit:!last)

let test_pin_sharded () =
  let shards = 2 in
  let world : S.wire Engine.t = Engine.create ~seed:11 () in
  let c =
    S.spawn_sharded ~tun:fast_tun ~world:(Runtime.Of_sim.of_engine world)
      ~registry:Workload.Bank.registry
      ~setup:(fun s db -> Workload.Bank.setup_shard ~rows:32 ~shards s db)
      ~router:(Workload.Bank.router ~shards) ()
  in
  let make_txn ~client ~seq =
    let src = (client + (seq * 7)) mod 32 in
    Workload.Bank.transfer ~src ~dst:((src + 1 + (seq mod 31)) mod 32) ~amount:1
  in
  let completed, last =
    pin_clients world (S.To_sharded c) ~n:3 ~count:12 ~make_txn
  in
  Engine.run ~until:30.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "completed" 3 (completed ());
  let replicas =
    List.concat_map (fun g -> g.S.smr_nodes) (Array.to_list c.S.sh_groups)
  in
  let of_group f l =
    Array.fold_left
      (fun acc g -> if List.mem l g.S.smr_nodes then f g l else acc)
      0 c.S.sh_groups
  in
  check_pin "sharded"
    [
      "42:-4185934650810462726";
      "42:-4185934650810462726";
      "42:-4185934650810462726";
      "48:4476386968270498108";
      "48:4476386968270498108";
      "48:4476386968270498108";
      "last=0x1.9a4dff85c78bcp-2";
      "events=29338";
      "commit=17";
      "abort=1";
    ]
    (pinned world ~replicas
       ~gseq_of:(of_group (fun g -> g.S.smr_gseq_of))
       ~hash_of:(of_group (fun g -> g.S.smr_hash_of))
       ~last_commit:!last
    @ [
        Printf.sprintf "commit=%d" (c.S.sh_committed ());
        Printf.sprintf "abort=%d" (c.S.sh_aborted ());
      ])

(* ---------- Txn / codec units ---------- *)

let test_txn_execute_rollback () =
  let db = Storage.Database.create Store.Hazel in
  Workload.Bank.setup ~rows:10 db;
  let reg = Workload.Bank.registry () in
  let before = Workload.Bank.total_balance db in
  let bad =
    Txn.execute reg db
      { Txn.client = 1; seq = 0; kind = "transfer";
        params = [ Value.Int 0; Value.Int 1; Value.Int 1_000_000 ] }
  in
  (match bad.Txn.outcome with
  | Error m -> Alcotest.(check string) "abort reason" "insufficient funds" m
  | Ok _ -> Alcotest.fail "expected abort");
  Alcotest.(check int) "state rolled back" before (Workload.Bank.total_balance db);
  let unknown =
    Txn.execute reg db { Txn.client = 1; seq = 1; kind = "nope"; params = [] }
  in
  Alcotest.(check bool) "unknown kind aborts" true
    (Result.is_error unknown.Txn.outcome)

let prop_txn_codec_roundtrip =
  let gen =
    QCheck.Gen.(
      map2
        (fun (client, seq) params ->
          {
            Txn.client;
            seq;
            kind = "deposit";
            params = List.map (fun i -> Value.Int i) params;
          })
        (pair small_nat small_nat)
        (list_size (0 -- 5) int))
  in
  QCheck.Test.make ~name:"txn codec round-trips" ~count:200 (QCheck.make gen)
    (fun txn ->
      match Shadowdb.Codec.decode_txn (Shadowdb.Codec.encode_txn txn) with
      | Ok txn' -> txn = txn'
      | Error _ -> false)

let prop_config_codec_roundtrip =
  QCheck.Test.make ~name:"config codec round-trips" ~count:200
    QCheck.(pair small_nat (list_of_size Gen.(0 -- 6) small_nat))
    (fun (seq, members) ->
      let c = { Shadowdb.Config.seq; members } in
      match
        Shadowdb.Codec.decode_reconfig
          (Shadowdb.Codec.encode_reconfig c ~last_seq:42 ~proposer:7)
      with
      | Ok (c', 42, 7) -> Shadowdb.Config.equal c c'
      | Ok _ | Error _ -> false)

let test_config_next () =
  let c = Shadowdb.Config.initial [ 1; 2; 3 ] in
  let c' = Shadowdb.Config.next c ~remove:[ 2 ] ~add:[ 9 ] in
  Alcotest.(check int) "seq bumped" 1 c'.Shadowdb.Config.seq;
  Alcotest.(check (list int)) "members" [ 1; 3; 9 ] c'.Shadowdb.Config.members

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "shadowdb"
    [
      ( "units",
        [
          Alcotest.test_case "txn execute/rollback" `Quick
            test_txn_execute_rollback;
          qt prop_txn_codec_roundtrip;
          qt prop_config_codec_roundtrip;
          Alcotest.test_case "config next" `Quick test_config_next;
        ] );
      ( "pbr",
        [
          Alcotest.test_case "normal case" `Quick test_pbr_normal_case;
          Alcotest.test_case "diverse backends agree" `Quick
            test_pbr_diverse_backends_agree;
          Alcotest.test_case "exactly-once under retries" `Quick
            test_pbr_exactly_once_under_retries;
          Alcotest.test_case "failover (catch-up)" `Quick
            test_pbr_failover_catchup;
          Alcotest.test_case "failover (snapshot)" `Quick
            test_pbr_failover_snapshot_path;
          Alcotest.test_case "durability" `Quick test_pbr_durability;
          Alcotest.test_case "overlapped state transfer" `Quick
            test_pbr_overlapped_state_transfer;
          Alcotest.test_case "state transfer of an empty database" `Quick
            test_pbr_empty_db_state_transfer;
          qt prop_pbr_random_crash;
        ] );
      ( "chain",
        [
          Alcotest.test_case "normal case" `Quick test_chain_normal_case;
          Alcotest.test_case "tail reply = commit point" `Quick
            test_chain_tail_reply_implies_all_executed;
          Alcotest.test_case "head crash recovery" `Quick
            test_chain_head_crash_recovery;
        ] );
      ( "smr",
        [
          Alcotest.test_case "normal case" `Quick test_smr_normal_case;
          Alcotest.test_case "crash transparent" `Quick
            test_smr_crash_transparent;
          Alcotest.test_case "spare activation" `Quick
            test_smr_spare_activation;
          qt prop_smr_random_crash;
        ] );
      ( "pins",
        [
          Alcotest.test_case "pbr catch-up" `Quick test_pin_pbr_catchup;
          Alcotest.test_case "pbr snapshot" `Quick test_pin_pbr_snapshot;
          Alcotest.test_case "chain" `Quick test_pin_chain;
          Alcotest.test_case "smr" `Quick test_pin_smr;
          Alcotest.test_case "sharded" `Quick test_pin_sharded;
        ] );
    ]
