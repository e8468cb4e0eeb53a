(* Tests for the runtime-polymorphic process layer.

   The same handlers — written once against the Runtime capability
   records — must behave identically whether hosted on the deterministic
   simulator (Of_sim) or on the single-reactor event-loop socket runtime
   (Loop). The suite exercises the generic process shell on both
   substrates, checks Of_sim keeps the simulator deterministic, runs the
   acceptance scenario — a 3-node Paxos-backed SMR bank cluster with
   ≥100 transactions end-to-end, wall-clock p50/p99 — on the loop
   runtime, drills crash/restart and outbox saturation (backpressure,
   bounded memory, no loss, per-link FIFO), and finishes with the
   cross-transport conformance checks: the same workload with in-process
   delivery and over real TCP sockets (and, recorded, on the simulator)
   must commit to identical database fingerprints. *)

module R = Runtime
module Engine = Sim.Engine
module S = Shadowdb.System.Make (Consensus.Paxos)

(* ------------------------------------------------------------------ *)
(* A tiny protocol over int messages: a driver bounces a counter off an
   echo machine until it reaches [limit]. The echo side is a pure
   Proc.machine; the driver is an imperative Proc.stateful_handler that
   starts the exchange from a timer (so Init, Recv and Timer inputs are
   all exercised on each runtime).                                      *)
(* ------------------------------------------------------------------ *)

type act = Send_to of Sim.Node_id.t * int

let echo_machine () =
  {
    R.Proc.init = (fun ~self:_ ~now:_ -> 0);
    start = (fun s ~now:_ -> (s, []));
    recv = (fun s ~now:_ ~src n -> (s + 1, [ Send_to (src, n + 1) ]));
    tick = (fun s ~now:_ ~tag:_ -> (s, []));
  }

let spawn_pingpong world ~limit ~on_reply ~echo_count =
  let echo =
    R.spawn world ~name:"echo" (fun () ->
        R.Proc.node_handler ~machine:(echo_machine ())
          ~prj:(fun n -> Some n)
          ~on_step:(fun _ ~before:_ ~after -> Atomic.set echo_count after)
          ~interp:(fun ctx (Send_to (dst, n)) -> R.send ctx dst n)
          ())
  in
  R.spawn world ~name:"driver" (fun () ->
      R.Proc.stateful_handler
        ~init:(fun ~self:_ ~now:_ -> ())
        ~handle:(fun ctx () -> function
          | R.Init -> ignore (R.set_timer ctx 0.01 "go")
          | R.Timer _ -> R.send ctx echo 0
          | R.Recv { msg = n; _ } ->
              on_reply ctx n;
              if n < limit then R.send ctx echo n)
        ())

let run_pingpong_sim ~seed =
  let world = Engine.create ~seed () in
  let rworld = R.Of_sim.of_engine world in
  let echo_count = Atomic.make 0 in
  let replies = ref [] in
  let _ =
    spawn_pingpong rworld ~limit:10 ~echo_count ~on_reply:(fun ctx n ->
        replies := (R.time ctx, n) :: !replies)
  in
  Engine.run ~until:60.0 world;
  (Atomic.get echo_count, List.rev !replies)

let test_proc_pingpong_sim () =
  let echoed, replies = run_pingpong_sim ~seed:7 in
  Alcotest.(check int) "echo handled every message" 10 echoed;
  Alcotest.(check int) "driver saw every reply" 10 (List.length replies);
  Alcotest.(check (list int))
    "replies in order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.map snd replies)

(* Of_sim is pure plumbing over the engine: the same seed must give the
   same virtual-time trace, to the last bit. *)
let test_of_sim_deterministic () =
  let a = run_pingpong_sim ~seed:42 in
  let b = run_pingpong_sim ~seed:42 in
  Alcotest.(check bool) "identical traces" true (a = b)

let int_codec =
  {
    R.enc = string_of_int;
    dec =
      (fun s ->
        match int_of_string_opt s with
        | Some n -> Ok n
        | None -> Error ("bad int frame: " ^ s));
  }

(* The very same handlers, hosted on real sockets: [~direct:false]
   forces socket sinks for every destination, covering the reactor's TCP
   flush/accept/read path (most other loop tests run the default direct
   local delivery). *)
let test_proc_pingpong_loop () =
  let rt =
    R.Loop.create ~direct:false ~record_delivery:true ~codec:int_codec ()
  in
  let echo_count = Atomic.make 0 in
  let final = Atomic.make (-1) in
  let _ =
    spawn_pingpong (R.Loop.runtime rt) ~limit:10 ~echo_count
      ~on_reply:(fun _ n -> if n >= 10 then Atomic.set final n)
  in
  R.Loop.start rt;
  let ok = R.Loop.await ~timeout:30.0 rt (fun () -> Atomic.get final >= 0) in
  R.Loop.stop rt;
  Alcotest.(check (list string)) "no runtime errors" [] (R.Loop.errors rt);
  Alcotest.(check bool) "exchange finished" true ok;
  Alcotest.(check int) "final reply" 10 (Atomic.get final);
  Alcotest.(check int) "echo handled every message" 10 (Atomic.get echo_count);
  Alcotest.(check int) "per-link FIFO clean" 0 (R.Loop.fifo_violations rt)

(* ------------------------------------------------------------------ *)
(* Acceptance: a 3-node Paxos-backed SMR bank cluster over loopback
   TCP — ≥100 transactions end-to-end, state agreement across the
   executing replicas, wall-clock p50/p99 — on the loop runtime.      *)
(* ------------------------------------------------------------------ *)

let smr_codec () =
  S.wire_codec ~enc_core:Shadowdb.Codec.encode_core_paxos
    ~dec_core:Shadowdb.Codec.decode_core_paxos

(* Run the bank workload on [rt] and return (commits, content hash of
   the executing replica with the highest delivery sequence number).
   Asserts completion, no runtime errors, and replica state agreement. *)
let run_smr_bank rt ~label ~clients ~count =
  let rows = 1_000 in
  let world = R.Loop.runtime rt in
  let cluster =
    S.spawn_smr ~world ~registry:Workload.Bank.registry
      ~setup:(fun db -> Workload.Bank.setup ~rows db)
      ~n_active:2 ()
  in
  Alcotest.(check int) "three nodes" 3 (List.length cluster.S.smr_nodes);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d has a bound port" l)
        true
        (R.Loop.port_of rt l <> None))
    cluster.S.smr_nodes;
  let mu = Mutex.create () in
  let commits = ref 0 in
  let latencies = Stats.Sample.create () in
  let make_txn ~client ~seq =
    let account = abs (Hashtbl.hash (client, seq)) mod rows in
    if seq mod 4 = 3 then Workload.Bank.balance ~account
    else Workload.Bank.deposit ~account ~amount:(1 + (seq mod 9))
  in
  let _, completed =
    S.spawn_clients ~world ~target:(S.To_smr cluster)
      ~n:clients ~count ~make_txn ~retry_timeout:2.0
      ~on_commit:(fun _now l ->
        Mutex.lock mu;
        incr commits;
        Stats.Sample.add latencies l;
        Mutex.unlock mu)
      ()
  in
  let t0 = Unix.gettimeofday () in
  R.Loop.start rt;
  let finished =
    R.Loop.await ~timeout:120.0 rt (fun () -> completed () >= clients)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  R.Loop.stop rt;
  Alcotest.(check (list string)) "no runtime errors" [] (R.Loop.errors rt);
  Alcotest.(check bool) "all clients finished" true finished;
  Alcotest.(check int) "clients completed" clients (completed ());
  Printf.printf
    "%s smr: %d txns in %.3f s wall-clock — latency p50 %.2f ms, p99 %.2f ms\n%!"
    label !commits elapsed
    (Stats.Sample.percentile latencies 50.0 *. 1e3)
    (Stats.Sample.percentile latencies 99.0 *. 1e3);
  (* The inactive spare tracks delivery sequence numbers but does not
     execute, so state agreement is defined over the active replicas. *)
  let executed =
    List.filter
      (fun l -> cluster.S.smr_active_of l && cluster.S.smr_gseq_of l > 0)
      cluster.S.smr_nodes
  in
  Alcotest.(check bool)
    "at least two replicas executed" true
    (List.length executed >= 2);
  let hashes = List.map cluster.S.smr_hash_of executed in
  (match hashes with
  | h :: t ->
      Alcotest.(check bool) "state agreement" true (List.for_all (( = ) h) t)
  | [] -> Alcotest.fail "no replica executed");
  let gseq = cluster.S.smr_gseq_of in
  let top =
    List.fold_left
      (fun a l -> if gseq l > gseq a then l else a)
      (List.hd executed) executed
  in
  (!commits, cluster.S.smr_hash_of top)

let test_loop_smr_bank () =
  let rt = R.Loop.create ~codec:(smr_codec ()) () in
  let clients = 4 and count = 30 in
  let commits, _ = run_smr_bank rt ~label:"loop" ~clients ~count in
  Alcotest.(check bool)
    (Printf.sprintf "at least 100 transactions committed (got %d)" commits)
    true
    (commits >= 100 && commits <= clients * count)

(* ------------------------------------------------------------------ *)
(* Loop runtime: crash/restart, outbox saturation, conformance.        *)
(* ------------------------------------------------------------------ *)

(* A driver that survives the death of its peer: a heartbeat timer
   resends the current counter until the echo answers, so progress stalls
   across the crash window and resumes after restart. *)
let test_loop_crash_restart () =
  let loop = R.Loop.create ~record_delivery:true ~codec:int_codec () in
  let world = R.Loop.runtime loop in
  let limit = 40 in
  let progress = Atomic.make 0 in
  let echo =
    R.spawn world ~name:"echo" (fun () ->
        R.Proc.node_handler ~machine:(echo_machine ())
          ~prj:(fun n -> Some n)
          ~interp:(fun ctx (Send_to (dst, n)) -> R.send ctx dst n)
          ())
  in
  let _driver =
    R.spawn world ~name:"driver" (fun () ->
        let next = ref 0 in
        R.Proc.stateful_handler
          ~init:(fun ~self:_ ~now:_ -> ())
          ~handle:(fun ctx () -> function
            | R.Init -> ignore (R.set_timer ctx 0.01 "kick")
            | R.Timer _ ->
                if !next < limit then begin
                  R.send ctx echo !next;
                  ignore (R.set_timer ctx 0.1 "kick")
                end
            | R.Recv { msg = n; _ } ->
                if n > !next then begin
                  next := n;
                  Atomic.set progress n
                end;
                if !next < limit then R.send ctx echo !next)
          ())
  in
  R.Loop.start loop;
  let warmed =
    R.Loop.await ~timeout:30.0 loop (fun () -> Atomic.get progress >= 10)
  in
  Alcotest.(check bool) "progress before crash" true warmed;
  R.Loop.crash loop echo;
  let before = Atomic.get progress in
  Thread.delay 0.25;  (* driver heartbeats into the void *)
  R.Loop.restart loop echo;
  let finished =
    R.Loop.await ~timeout:30.0 loop (fun () -> Atomic.get progress >= limit)
  in
  R.Loop.stop loop;
  Alcotest.(check bool) "finished after restart" true finished;
  Alcotest.(check bool)
    (Printf.sprintf "crash did not rewind progress (%d -> %d)" before
       (Atomic.get progress))
    true
    (Atomic.get progress >= before);
  Alcotest.(check (list string)) "no runtime errors" [] (R.Loop.errors loop);
  Alcotest.(check int) "per-link FIFO clean across crash" 0
    (R.Loop.fifo_violations loop)

(* Saturate one outbox with tiny watermarks: a producer bursts far more
   bytes per dispatch than the high watermark, so backpressure must
   engage (parking the producer's next burst timer), memory must stay
   bounded by one burst of overshoot, and every message must still reach
   the consumer exactly once, in order. *)
let test_loop_outbox_saturation () =
  let high = 8 * 1024 and low = 2 * 1024 in
  let burst = 2_000 and bursts = 10 in
  let total = burst * bursts in
  let signalled = Atomic.make 0 in
  let loop =
    R.Loop.create ~high ~low ~record_delivery:true
      ~on_backpressure:(fun ~dst:_ ~bytes:_ -> Atomic.incr signalled)
      ~codec:int_codec ()
  in
  let world = R.Loop.runtime loop in
  let received = Atomic.make 0 in
  let disorder = Atomic.make 0 in
  let consumer =
    R.spawn world ~name:"consumer" (fun () ->
        let expected = ref 0 in
        R.Proc.stateful_handler
          ~init:(fun ~self:_ ~now:_ -> ())
          ~handle:(fun _ctx () -> function
            | R.Recv { msg = n; _ } ->
                if n <> !expected then Atomic.incr disorder;
                incr expected;
                Atomic.set received !expected
            | R.Init | R.Timer _ -> ())
          ())
  in
  let _producer =
    R.spawn world ~name:"producer" (fun () ->
        let sent = ref 0 in
        R.Proc.stateful_handler
          ~init:(fun ~self:_ ~now:_ -> ())
          ~handle:(fun ctx () -> function
            | R.Init -> ignore (R.set_timer ctx 0.0 "burst")
            | R.Timer _ ->
                if !sent < total then begin
                  for i = !sent to !sent + burst - 1 do
                    R.send ctx consumer i
                  done;
                  sent := !sent + burst;
                  ignore (R.set_timer ctx 0.0 "burst")
                end
            | R.Recv _ -> ())
          ())
  in
  R.Loop.start loop;
  let finished =
    R.Loop.await ~timeout:60.0 loop (fun () -> Atomic.get received >= total)
  in
  R.Loop.stop loop;
  let st = R.Loop.stats loop in
  Alcotest.(check (list string)) "no runtime errors" [] (R.Loop.errors loop);
  Alcotest.(check bool) "all messages delivered" true finished;
  Alcotest.(check int) "no loss, no duplication" total (Atomic.get received);
  Alcotest.(check int) "delivered in order" 0 (Atomic.get disorder);
  Alcotest.(check int) "per-link FIFO clean" 0 st.R.Loop.s_fifo_violations;
  Alcotest.(check bool)
    (Printf.sprintf "backpressure engaged (%d times)" st.R.Loop.s_backpressure)
    true
    (st.R.Loop.s_backpressure >= 1);
  Alcotest.(check bool) "harness saw the Backpressure signal" true
    (Atomic.get signalled >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "producer was parked (%d times)" st.R.Loop.s_parked)
    true (st.R.Loop.s_parked >= 1);
  (* A producer can overshoot the watermark only by what one dispatch
     emits: one burst of ~12-byte frames. *)
  let bound = high + (burst * 32) in
  Alcotest.(check bool)
    (Printf.sprintf "outbox memory bounded (peak %d <= %d)"
       st.R.Loop.s_peak_outbox_bytes bound)
    true
    (st.R.Loop.s_peak_outbox_bytes <= bound);
  Alcotest.(check bool)
    (Printf.sprintf "sends were coalesced (%d frames in %d writes)"
       st.R.Loop.s_sent_msgs st.R.Loop.s_flush_writes)
    true
    (st.R.Loop.s_flush_writes * 2 <= st.R.Loop.s_sent_msgs)

(* Cross-transport conformance: the same deterministic closed-loop bank
   workload with in-process delivery ([~direct:true]) and over real TCP
   socket sinks ([~direct:false]) must commit to identical database
   content fingerprints (TOB agreement end-to-end; commutativity of the
   deposit set makes the fingerprint schedule-independent, and duplicate
   suppression makes it retry-independent). *)
let test_transport_conformance () =
  let clients = 3 and count = 20 in
  let leg ~direct label =
    let rt =
      R.Loop.create ~direct ~record_delivery:true ~codec:(smr_codec ()) ()
    in
    let _, hash = run_smr_bank rt ~label ~clients ~count in
    Alcotest.(check int) (label ^ " per-link FIFO clean") 0
      (R.Loop.fifo_violations rt);
    hash
  in
  let direct = leg ~direct:true "conformance/direct" in
  let socket = leg ~direct:false "conformance/socket" in
  Alcotest.(check bool)
    (Printf.sprintf "identical committed-state fingerprints (%d vs %d)" direct
       socket)
    true (direct = socket)

(* Recorded cross-runtime differential: the same seeded bank workload on
   the simulator and on the loop runtime over both transports (direct
   in-process delivery and TCP socket sinks), each run recorded through
   the conformance tap; every trace must replay clean through the LoE
   spec and the invariant monitors, and the most-advanced replica's final
   state fingerprint must be identical across all three legs (the
   deposit set is determined by (client, seq), so the committed state is
   schedule-independent). *)

let final_fingerprint events =
  List.fold_left
    (fun acc (e : Conform.Event.t) ->
      match (e.Conform.Event.kind, acc) with
      | Conform.Event.Checkpoint { seqno; hash; _ }, Some (s, _) when seqno > s
        ->
          Some (seqno, hash)
      | Conform.Event.Checkpoint { seqno; hash; _ }, None -> Some (seqno, hash)
      | _ -> acc)
    None events

let test_recorded_differential () =
  let clients = 3 and count = 20 and rows = 1_000 in
  (* Sim leg: the shared recorded-reference-run helper (same workload
     formula as run_smr_bank). *)
  let sim = Conform.Record.sim_bank ~seed:11 ~clients ~count ~rows () in
  Alcotest.(check int)
    "sim clients completed" clients sim.Conform.Record.completed;
  let sim_events = Conform.Recorder.events sim.Conform.Record.recorder in
  let sim_meta = Conform.Recorder.meta sim.Conform.Record.recorder in
  Alcotest.(check bool) "sim trace conformant" true
    (Conform.Record.conformant ~meta:sim_meta sim_events);
  (* Loop legs: the acceptance harness with a recorder tapped into the
     runtime. *)
  let record_leg ~direct label =
    let meta =
      [ ("workload", "bank"); ("rows", string_of_int rows); ("runtime", "loop") ]
    in
    let r = Conform.Recorder.create ~meta () in
    let tap = Conform.Recorder.tap r ~enc:(smr_codec ()).R.enc in
    let rt = R.Loop.create ~direct ~tap ~codec:(smr_codec ()) () in
    let _ = run_smr_bank rt ~label:("differential/" ^ label) ~clients ~count in
    let events = Conform.Recorder.events r in
    Alcotest.(check bool)
      (label ^ " trace conformant")
      true
      (Conform.Record.conformant ~meta events);
    events
  in
  let direct_events = record_leg ~direct:true "direct" in
  let socket_events = record_leg ~direct:false "socket" in
  match
    ( final_fingerprint sim_events,
      final_fingerprint direct_events,
      final_fingerprint socket_events )
  with
  | Some (_, a), Some (_, b), Some (_, c) ->
      Alcotest.(check bool)
        (Printf.sprintf "final fingerprints agree across runtimes (%x %x %x)"
           a b c)
        true
        (a = b && b = c)
  | _ -> Alcotest.fail "a recorded trace has no state checkpoints"

let () =
  Alcotest.run "runtime"
    [
      ( "proc",
        [
          Alcotest.test_case "ping-pong on the simulator" `Quick
            test_proc_pingpong_sim;
          Alcotest.test_case "Of_sim is deterministic" `Quick
            test_of_sim_deterministic;
        ] );
      ( "loop",
        [
          Alcotest.test_case "ping-pong on the event loop" `Quick
            test_proc_pingpong_loop;
          Alcotest.test_case "3-node SMR bank cluster, 120 txns" `Slow
            test_loop_smr_bank;
          Alcotest.test_case "crash/restart under the event loop" `Quick
            test_loop_crash_restart;
          Alcotest.test_case "outbox saturation: backpressure, no loss"
            `Quick test_loop_outbox_saturation;
          Alcotest.test_case "direct vs socket committed-state conformance"
            `Slow test_transport_conformance;
        ] );
      ( "conform",
        [
          Alcotest.test_case
            "recorded sim/direct/socket traces replay clean, fingerprints \
             agree"
            `Slow test_recorded_differential;
        ] );
    ]
