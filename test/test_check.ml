(* Tests for the schedule-exploring model checker: fault DSL round-trips,
   strategy recording/replay, exploration of the real protocols (which
   must stay violation-free), the deliberately broken broadcast double
   (which must yield a captured, replayable, shrunk counterexample), and
   determinism of exploration per seed. *)

module Sched = Check.Sched
module Fault = Check.Fault
module Trace = Check.Trace
module Scenario = Check.Scenario
module Scenarios = Check.Scenarios
module Explore = Check.Explore

(* ---- fault DSL ------------------------------------------------------- *)

let test_fault_roundtrip () =
  let plan =
    [
      { Fault.at_depth = 2; op = Fault.Partition (0, 1) };
      { Fault.at_depth = 3; op = Fault.Crash 2 };
      { Fault.at_depth = 6; op = Fault.Heal (0, 1) };
      { Fault.at_depth = 8; op = Fault.Restart 2 };
    ]
  in
  let s = Fault.to_string plan in
  Alcotest.(check string)
    "rendering" "part:0:1@2,crash:2@3,heal:0:1@6,restart:2@8" s;
  match Fault.parse s with
  | Ok plan' -> Alcotest.(check bool) "round-trip" true (plan = plan')
  | Error e -> Alcotest.fail e

let test_fault_parse_errors () =
  let bad s =
    match Fault.parse s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "missing depth" true (bad "crash:0");
  Alcotest.(check bool) "bad op" true (bad "explode:0@3");
  Alcotest.(check bool) "bad node" true (bad "crash:x@3");
  Alcotest.(check bool) "empty ok" true (Fault.parse "" = Ok [])

let test_fault_random_crash_stop () =
  (* Random plans model crash-stop failures: never an amnesia restart,
     and every partition is eventually healed. *)
  for seed = 0 to 199 do
    let plan =
      Fault.random (Sim.Prng.create seed) ~nodes:3 ~max_depth:20
    in
    List.iter
      (fun s ->
        match s.Fault.op with
        | Fault.Restart _ -> Alcotest.fail "random plan contains a restart"
        | Fault.Partition (a, b) ->
            let healed =
              List.exists
                (fun s' ->
                  s'.Fault.op = Fault.Heal (a, b)
                  && s'.Fault.at_depth > s.Fault.at_depth)
                plan
            in
            Alcotest.(check bool) "partition healed" true healed
        | Fault.Crash _ | Fault.Heal _ -> ())
      plan
  done

(* ---- strategies ------------------------------------------------------ *)

let test_sched_records () =
  let s = Sched.random 5 in
  let picks = List.init 20 (fun i -> Sched.choose s (2 + (i mod 4))) in
  Alcotest.(check int) "depth" 20 (Sched.depth s);
  Alcotest.(check (list int)) "decisions" picks
    (Array.to_list (Sched.decisions s));
  Array.iteri
    (fun i w -> Alcotest.(check int) "width" (2 + (i mod 4)) w)
    (Sched.widths s);
  (* Replaying the recorded decisions through a Fixed strategy yields the
     same choices. *)
  let f = Sched.fixed (Sched.decisions s) in
  List.iteri
    (fun i w ->
      Alcotest.(check int)
        (Printf.sprintf "fixed pick %d" i)
        (List.nth picks i) (Sched.choose f w))
    (List.init 20 (fun i -> 2 + (i mod 4)))

let test_sched_fixed_defaults () =
  (* Beyond the prefix, and on out-of-range entries, Fixed falls back to
     choice 0 (the simulator's default order). *)
  let s = Sched.fixed [| 1; 9 |] in
  Alcotest.(check int) "in prefix" 1 (Sched.choose s 3);
  Alcotest.(check int) "out of range" 0 (Sched.choose s 3);
  Alcotest.(check int) "past prefix" 0 (Sched.choose s 3)

(* ---- exploring the real protocols ------------------------------------ *)

let test_paxos_random_clean () =
  let r = Explore.random_walk Scenarios.paxos ~seed:1 ~budget:300 () in
  Alcotest.(check int) "all schedules run" 300 r.Explore.schedules;
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None);
  Alcotest.(check bool) "states covered" true (r.Explore.distinct_states > 300)

let test_paxos_random_faults_clean () =
  let r =
    Explore.random_walk ~random_faults:true Scenarios.paxos ~seed:7
      ~budget:300 ()
  in
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None)

let test_paxos_dfs_clean () =
  let r = Explore.dfs ~max_depth:8 Scenarios.paxos ~seed:1 ~budget:150 () in
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None);
  Alcotest.(check bool) "ran schedules" true (r.Explore.schedules > 10)

let test_tob_random_clean () =
  let r = Explore.random_walk Scenarios.tob ~seed:3 ~budget:60 () in
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None)

let test_tob_member_crash_clean () =
  (* Crashing one of three TOB members: the survivors re-elect and keep
     total order. *)
  let faults = [ { Fault.at_depth = 15; op = Fault.Crash 1 } ] in
  let r = Explore.random_walk ~faults Scenarios.tob ~seed:5 ~budget:25 () in
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None)

(* Consensus pipelining: the total-order monitors must hold no matter how
   many batches a member keeps in flight through consensus (k = 1, 2, 4),
   under both random walks and DFS. *)
let test_tob_windows_random_clean () =
  List.iter
    (fun sc ->
      let r = Explore.random_walk sc ~seed:3 ~budget:40 () in
      Alcotest.(check bool)
        (Printf.sprintf "no violation (%s, random)" sc.Scenario.name)
        true
        (r.Explore.violation = None))
    [ Scenarios.tob; Scenarios.tob_w2; Scenarios.tob_w4 ]

let test_tob_windows_dfs_clean () =
  List.iter
    (fun sc ->
      let r = Explore.dfs ~max_depth:8 sc ~seed:3 ~budget:40 () in
      Alcotest.(check bool)
        (Printf.sprintf "no violation (%s, dfs)" sc.Scenario.name)
        true
        (r.Explore.violation = None))
    [ Scenarios.tob; Scenarios.tob_w2; Scenarios.tob_w4 ]

let test_smr_windows_clean () =
  List.iter
    (fun sc ->
      let r = Explore.random_walk sc ~seed:1 ~budget:6 () in
      Alcotest.(check bool)
        (Printf.sprintf "no violation (%s, random)" sc.Scenario.name)
        true
        (r.Explore.violation = None);
      let r = Explore.dfs ~max_depth:6 sc ~seed:1 ~budget:6 () in
      Alcotest.(check bool)
        (Printf.sprintf "no violation (%s, dfs)" sc.Scenario.name)
        true
        (r.Explore.violation = None))
    [ Scenarios.smr_w2; Scenarios.smr_w4 ]

let test_pbr_random_clean () =
  let r = Explore.random_walk Scenarios.pbr ~seed:1 ~budget:12 () in
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None)

let test_chain_random_clean () =
  let r = Explore.random_walk Scenarios.chain ~seed:1 ~budget:12 () in
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None)

let test_pbr_primary_crash_clean () =
  (* Crash the initial primary mid-run: failover must preserve state
     agreement and durability of acknowledged transactions. *)
  let faults = [ { Fault.at_depth = 40; op = Fault.Crash 0 } ] in
  let r = Explore.random_walk ~faults Scenarios.pbr ~seed:2 ~budget:8 () in
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None)

let test_smr_random_clean () =
  let r = Explore.random_walk Scenarios.smr ~seed:1 ~budget:12 () in
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None)

let test_exploration_deterministic () =
  let run () =
    let r =
      Explore.random_walk ~random_faults:true Scenarios.paxos ~seed:42
        ~budget:150 ()
    in
    (r.Explore.schedules, r.Explore.distinct_states, r.Explore.max_depth,
     r.Explore.total_events)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, identical exploration" true (a = b);
  let c =
    let r =
      Explore.random_walk ~random_faults:true Scenarios.paxos ~seed:43
        ~budget:150 ()
    in
    (r.Explore.schedules, r.Explore.distinct_states, r.Explore.max_depth,
     r.Explore.total_events)
  in
  Alcotest.(check bool) "different seed, different coverage" true (a <> c)

(* Pinned exploration counts (distinct states / total events) with the
   CLI's defaults (random mode, max depth 12). Any change to what a
   protocol does on a schedule moves these numbers, so a refactor that
   must keep behaviour identical is checked against them. *)
let pin ?(random_faults = false) sc ~budget ~seed ~states ~events () =
  let r =
    Explore.random_walk ~random_faults ~max_depth:12 sc ~seed ~budget ()
  in
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None);
  Alcotest.(check int) "distinct states" states r.Explore.distinct_states;
  Alcotest.(check int) "total events" events r.Explore.total_events

let test_pin_tob =
  pin Scenarios.tob ~budget:200 ~seed:7 ~states:13992 ~events:48729

let test_pin_tob_faults =
  pin ~random_faults:true Scenarios.tob ~budget:200 ~seed:7 ~states:16904
    ~events:42416

let test_pin_paxos_faults =
  pin ~random_faults:true Scenarios.paxos ~budget:300 ~seed:7 ~states:8072
    ~events:28847

let test_pin_smr =
  pin Scenarios.smr ~budget:200 ~seed:7 ~states:3923 ~events:145800

(* ---- counterexamples on the broken broadcast double ------------------- *)

let find_buggy () =
  let r = Explore.random_walk Scenarios.buggy ~seed:3 ~budget:500 () in
  match r.Explore.violation with
  | Some t -> t
  | None -> Alcotest.fail "no violation found on the buggy double"

let test_buggy_counterexample_found () =
  let t = find_buggy () in
  Alcotest.(check string) "monitor" "tob-total-order" t.Trace.monitor;
  Alcotest.(check bool) "nonempty decisions" true
    (Array.length t.Trace.decisions > 0)

let test_buggy_replay () =
  let t = find_buggy () in
  let out = Explore.replay Scenarios.buggy t in
  match out.Scenario.violation with
  | Some v ->
      Alcotest.(check string) "same monitor" t.Trace.monitor
        v.Scenario.monitor
  | None -> Alcotest.fail "captured trace does not replay"

let test_buggy_shrunk_is_minimal () =
  (* The shrunk trace still fails, and removing its last decision makes it
     pass: greedy 1-minimality in the trimming dimension. *)
  let t = find_buggy () in
  let n = Array.length t.Trace.decisions in
  Alcotest.(check bool) "still fails" true
    ((Explore.replay Scenarios.buggy t).Scenario.violation <> None);
  let weaker =
    { t with Trace.decisions = Array.sub t.Trace.decisions 0 (n - 1) }
  in
  Alcotest.(check bool) "1-minimal" true
    ((Explore.replay Scenarios.buggy weaker).Scenario.violation = None)

let test_buggy_dfs_finds_it () =
  let r = Explore.dfs ~max_depth:8 Scenarios.buggy ~seed:3 ~budget:200 () in
  Alcotest.(check bool) "dfs finds the violation" true
    (r.Explore.violation <> None)

let test_trace_file_roundtrip () =
  let t = find_buggy () in
  let file = Filename.temp_file "check" ".trace" in
  Trace.save file t;
  (match Trace.load file with
  | Error e -> Alcotest.fail e
  | Ok t' ->
      Alcotest.(check string) "protocol" t.Trace.protocol t'.Trace.protocol;
      Alcotest.(check int) "seed" t.Trace.world_seed t'.Trace.world_seed;
      Alcotest.(check bool) "decisions" true
        (t.Trace.decisions = t'.Trace.decisions);
      Alcotest.(check bool) "faults" true (t.Trace.faults = t'.Trace.faults);
      let out = Explore.replay Scenarios.buggy t' in
      Alcotest.(check bool) "loaded trace replays" true
        (out.Scenario.violation <> None));
  Sys.remove file

(* ---- qcheck properties ------------------------------------------------ *)

let prop_fault_roundtrip =
  QCheck.Test.make ~count:100 ~name:"fault plan to_string/parse round-trip"
    QCheck.(small_int)
    (fun seed ->
      let plan =
        Fault.random (Sim.Prng.create seed) ~nodes:4 ~max_depth:30
      in
      Fault.parse (Fault.to_string plan) = Ok plan)

let prop_paxos_never_violates =
  QCheck.Test.make ~count:8 ~name:"paxos agreement holds across seeds"
    QCheck.(small_int)
    (fun seed ->
      let r =
        Explore.random_walk ~random_faults:true Scenarios.paxos ~seed
          ~budget:25 ()
      in
      r.Explore.violation = None)

let prop_buggy_counterexamples_replay =
  QCheck.Test.make ~count:8 ~name:"buggy counterexamples always replay"
    QCheck.(small_int)
    (fun seed ->
      let r = Explore.random_walk Scenarios.buggy ~seed ~budget:300 () in
      match r.Explore.violation with
      | None -> true (* some seeds may not hit it within the budget *)
      | Some t ->
          (Explore.replay Scenarios.buggy t).Scenario.violation <> None)

(* ---- durability: crash/restart schedules through real recovery -------- *)

(* Crash/restart plans need enough depth for transactions to commit before
   the crash; at shallow depths the fault lands on an idle replica and
   recovery has nothing to prove. *)
let recovery_depth = 300

let test_smr_durable_recovery_clean () =
  let r =
    Explore.random_walk ~fault_gen:Fault.random_recovery
      ~max_depth:recovery_depth Scenarios.smr_durable ~seed:3 ~budget:30 ()
  in
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None)

let find_noreplay () =
  let r =
    Explore.random_walk ~fault_gen:Fault.random_recovery
      ~max_depth:recovery_depth Scenarios.smr_noreplay ~seed:3 ~budget:80 ()
  in
  match r.Explore.violation with
  | Some t -> t
  | None -> Alcotest.fail "no violation found on the no-replay fixture"

let test_noreplay_counterexample_found () =
  let t = find_noreplay () in
  Alcotest.(check string) "monitor" "smr-noreplay-no-committed-loss"
    t.Trace.monitor;
  Alcotest.(check bool) "plan contains a crash and a restart" true
    (List.exists (fun f -> match f.Fault.op with Fault.Crash _ -> true | _ -> false)
       t.Trace.faults
    && List.exists
         (fun f -> match f.Fault.op with Fault.Restart _ -> true | _ -> false)
         t.Trace.faults)

let test_noreplay_counterexample_replays () =
  let t = find_noreplay () in
  match (Explore.replay Scenarios.smr_noreplay t).Scenario.violation with
  | Some v ->
      Alcotest.(check string) "same monitor" t.Trace.monitor v.Scenario.monitor
  | None -> Alcotest.fail "captured durability trace does not replay"

(* ---- sharding: 2PC-over-TOB under coordinator crash/restart ----------- *)

let test_sharded_recovery_clean () =
  let r =
    Explore.random_walk ~fault_gen:Fault.random_recovery ~max_depth:2000
      Scenarios.sharded ~seed:3 ~budget:20 ()
  in
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None)

let test_sharded_dfs_clean () =
  let r = Explore.dfs ~max_depth:200 Scenarios.sharded ~seed:1 ~budget:60 () in
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None);
  Alcotest.(check bool) "ran schedules" true (r.Explore.schedules > 10)

(* The broken fixture drops the coordinator's decision journal: a crash
   after sending one participant's COMMIT but before the other's leaves
   a restarted coordinator unable to re-decide, and the presumed-abort
   timeout diverges from the already-applied commit. *)
let sharded_monitors =
  [
    "xshard-atomicity";
    "xshard-serializable";
    "sharded-nopersist-conservation";
    "sharded-nopersist-state-agreement";
  ]

let find_nopersist () =
  let r =
    Explore.random_walk ~fault_gen:Fault.random_recovery ~max_depth:2000
      Scenarios.sharded_nopersist ~seed:3 ~budget:40 ()
  in
  match r.Explore.violation with
  | Some t -> t
  | None -> Alcotest.fail "no violation found on the no-journal 2PC fixture"

let test_nopersist_counterexample_found () =
  let t = find_nopersist () in
  Alcotest.(check bool)
    (Printf.sprintf "violates a cross-shard monitor (%s)" t.Trace.monitor)
    true
    (List.mem t.Trace.monitor sharded_monitors);
  Alcotest.(check bool) "plan crashes and restarts the coordinator" true
    (List.exists
       (fun f -> match f.Fault.op with Fault.Crash _ -> true | _ -> false)
       t.Trace.faults
    && List.exists
         (fun f -> match f.Fault.op with Fault.Restart _ -> true | _ -> false)
         t.Trace.faults)

let test_nopersist_counterexample_replays () =
  let t = find_nopersist () in
  match (Explore.replay Scenarios.sharded_nopersist t).Scenario.violation with
  | Some v ->
      Alcotest.(check string) "same monitor" t.Trace.monitor v.Scenario.monitor
  | None -> Alcotest.fail "captured 2PC trace does not replay"

let prop_recovery_plan_shape =
  QCheck.Test.make ~count:100
    ~name:"recovery plans restart the crashed node strictly later"
    QCheck.(small_int)
    (fun seed ->
      let plan =
        Fault.random_recovery (Sim.Prng.create seed) ~nodes:3 ~max_depth:50
      in
      match plan with
      | [
       { Fault.at_depth = d1; op = Fault.Crash a };
       { Fault.at_depth = d2; op = Fault.Restart b };
      ] ->
          a = b && d2 > d1
      | _ -> false)

(* ---- runtime conformance properties ----------------------------------- *)

(* Soundness: a trace recorded from a correct run — any seed — replays
   clean through the LoE spec and the invariant monitors. *)
let prop_conform_recorded_clean =
  QCheck.Test.make ~count:4 ~name:"recorded sim traces replay clean"
    QCheck.(small_int)
    (fun seed ->
      let run =
        Conform.Record.sim_bank ~seed:(1 + (abs seed mod 1000)) ~clients:2
          ~count:8 ~rows:64 ()
      in
      Conform.Record.conformant
        ~meta:(Conform.Recorder.meta run.Conform.Record.recorder)
        (Conform.Recorder.events run.Conform.Record.recorder))

(* One reference trace, mutated many ways: sensitivity is per-event, not
   just per-fixture. *)
let conform_reference =
  lazy
    (let run = Conform.Record.sim_bank ~seed:5 ~clients:2 ~count:12 ~rows:64 () in
     ( Conform.Recorder.meta run.Conform.Record.recorder,
       Conform.Recorder.events run.Conform.Record.recorder ))

(* Sensitivity: dropping any single delivery that the trace later builds
   on is rejected by the checker. *)
let prop_conform_drop_rejected =
  QCheck.Test.make ~count:25
    ~name:"dropping any one built-on delivery is rejected"
    QCheck.(small_int)
    (fun pick ->
      let meta, events = Lazy.force conform_reference in
      match Conform.Mutate.droppable events with
      | [] -> QCheck.Test.fail_report "reference trace has no droppable event"
      | eligible ->
          let i = List.nth eligible (abs pick mod List.length eligible) in
          not (Conform.Record.conformant ~meta (Conform.Mutate.drop_at i events)))

let () =
  Alcotest.run "check"
    [
      ( "fault-dsl",
        [
          Alcotest.test_case "round-trip" `Quick test_fault_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_fault_parse_errors;
          Alcotest.test_case "random plans are crash-stop" `Quick
            test_fault_random_crash_stop;
        ] );
      ( "sched",
        [
          Alcotest.test_case "records decisions and widths" `Quick
            test_sched_records;
          Alcotest.test_case "fixed falls back to default" `Quick
            test_sched_fixed_defaults;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "paxos random clean" `Quick
            test_paxos_random_clean;
          Alcotest.test_case "paxos random+faults clean" `Quick
            test_paxos_random_faults_clean;
          Alcotest.test_case "paxos dfs clean" `Quick test_paxos_dfs_clean;
          Alcotest.test_case "tob random clean" `Quick test_tob_random_clean;
          Alcotest.test_case "tob member crash clean" `Quick
            test_tob_member_crash_clean;
          Alcotest.test_case "tob pipelining windows random clean" `Quick
            test_tob_windows_random_clean;
          Alcotest.test_case "tob pipelining windows dfs clean" `Quick
            test_tob_windows_dfs_clean;
          Alcotest.test_case "smr pipelining windows clean" `Quick
            test_smr_windows_clean;
          Alcotest.test_case "pbr random clean" `Quick test_pbr_random_clean;
          Alcotest.test_case "chain random clean" `Quick
            test_chain_random_clean;
          Alcotest.test_case "pbr primary crash clean" `Quick
            test_pbr_primary_crash_clean;
          Alcotest.test_case "smr random clean" `Quick test_smr_random_clean;
          Alcotest.test_case "exploration deterministic per seed" `Quick
            test_exploration_deterministic;
          Alcotest.test_case "pin tob" `Quick test_pin_tob;
          Alcotest.test_case "pin tob faults" `Quick test_pin_tob_faults;
          Alcotest.test_case "pin paxos faults" `Quick test_pin_paxos_faults;
          Alcotest.test_case "pin smr" `Quick test_pin_smr;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "found on buggy double" `Quick
            test_buggy_counterexample_found;
          Alcotest.test_case "replays exactly" `Quick test_buggy_replay;
          Alcotest.test_case "shrunk trace is 1-minimal" `Quick
            test_buggy_shrunk_is_minimal;
          Alcotest.test_case "dfs finds it too" `Quick test_buggy_dfs_finds_it;
          Alcotest.test_case "trace file round-trip" `Quick
            test_trace_file_roundtrip;
        ] );
      ( "durability",
        [
          Alcotest.test_case "smr-durable clean under crash/restart" `Quick
            test_smr_durable_recovery_clean;
          Alcotest.test_case "no-replay fixture caught" `Quick
            test_noreplay_counterexample_found;
          Alcotest.test_case "no-replay counterexample replays" `Quick
            test_noreplay_counterexample_replays;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "sharded clean under crash/restart" `Quick
            test_sharded_recovery_clean;
          Alcotest.test_case "sharded dfs clean" `Quick test_sharded_dfs_clean;
          Alcotest.test_case "no-journal 2PC fixture caught" `Quick
            test_nopersist_counterexample_found;
          Alcotest.test_case "no-journal counterexample replays" `Quick
            test_nopersist_counterexample_replays;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fault_roundtrip;
            prop_paxos_never_violates;
            prop_buggy_counterexamples_replay;
            prop_recovery_plan_shape;
            prop_conform_recorded_clean;
            prop_conform_drop_rejected;
          ] );
    ]
