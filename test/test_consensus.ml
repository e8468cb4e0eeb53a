(* Tests for the consensus substrate: acceptor/leader/replica roles of
   Paxos Synod, the TwoThird protocol, and whole-core agreement properties
   under adversarial message scheduling, duplication, and loss. *)

module M = Consensus.Paxos_msg
module Acceptor = Consensus.Acceptor
module Leader = Consensus.Leader
module Replica = Consensus.Replica
module Twothird = Consensus.Twothird
module I = Consensus.Consensus_intf

let b round leader = { M.round; M.leader }

(* Ballots *)

let test_ballot_order () =
  Alcotest.(check bool) "round dominates" true (M.ballot_compare (b 1 0) (b 0 9) > 0);
  Alcotest.(check bool) "leader breaks ties" true (M.ballot_compare (b 1 2) (b 1 1) > 0);
  Alcotest.(check int) "equal" 0 (M.ballot_compare (b 3 4) (b 3 4));
  let s = M.ballot_succ (b 2 7) 1 in
  Alcotest.(check bool) "succ greater" true (M.ballot_compare s (b 2 7) > 0)

(* Acceptor *)

let test_acceptor_promise_monotone () =
  let a = Acceptor.create ~self:10 in
  let a, r1 = Acceptor.step a (M.P1a { src = 1; b = b 5 1 }) in
  (match r1 with
  | [ (1, M.P1b { b = promised; accepted = []; _ }) ] ->
      Alcotest.(check int) "promised round" 5 promised.M.round
  | _ -> Alcotest.fail "expected p1b");
  (* A lower ballot must not regress the promise. *)
  let a, r2 = Acceptor.step a (M.P1a { src = 2; b = b 3 2 }) in
  (match r2 with
  | [ (2, M.P1b { b = promised; _ }) ] ->
      Alcotest.(check int) "promise kept" 5 promised.M.round
  | _ -> Alcotest.fail "expected p1b");
  ignore a

let test_acceptor_accepts_at_or_above_promise () =
  let a = Acceptor.create ~self:10 in
  let a, _ = Acceptor.step a (M.P1a { src = 1; b = b 5 1 }) in
  let pv = { M.b = b 5 1; s = 0; c = "x" } in
  let a, r = Acceptor.step a (M.P2a { src = 1; pv }) in
  (match r with
  | [ (1, M.P2b { b = cur; s = 0; _ }) ] ->
      Alcotest.(check int) "accepted at promise" 5 cur.M.round
  | _ -> Alcotest.fail "expected p2b");
  Alcotest.(check int) "stored" 1 (List.length (Acceptor.accepted a))

let test_acceptor_rejects_below_promise () =
  let a = Acceptor.create ~self:10 in
  let a, _ = Acceptor.step a (M.P1a { src = 1; b = b 5 1 }) in
  let pv = { M.b = b 2 2; s = 0; c = "low" } in
  let a, r = Acceptor.step a (M.P2a { src = 2; pv }) in
  (match r with
  | [ (2, M.P2b { b = cur; _ }) ] ->
      Alcotest.(check int) "reply carries promise" 5 cur.M.round
  | _ -> Alcotest.fail "expected p2b");
  Alcotest.(check int) "nothing accepted" 0 (List.length (Acceptor.accepted a))

let test_acceptor_keeps_highest_ballot_per_slot () =
  let a = Acceptor.create ~self:10 in
  let a, _ =
    Acceptor.step a (M.P2a { src = 1; pv = { M.b = b 1 1; s = 3; c = "old" } })
  in
  let a, _ =
    Acceptor.step a (M.P2a { src = 2; pv = { M.b = b 2 2; s = 3; c = "new" } })
  in
  (match Acceptor.accepted a with
  | [ pv ] ->
      Alcotest.(check string) "highest kept" "new" pv.M.c;
      Alcotest.(check int) "slot" 3 pv.M.s
  | _ -> Alcotest.fail "expected one pvalue");
  (* Re-sending the old ballot must not clobber it back. *)
  let a, _ =
    Acceptor.step a (M.P2a { src = 1; pv = { M.b = b 1 1; s = 3; c = "old" } })
  in
  match Acceptor.accepted a with
  | [ pv ] -> Alcotest.(check string) "still new" "new" pv.M.c
  | _ -> Alcotest.fail "expected one pvalue"

(* Leader *)

let mk_leader () = Leader.create ~self:0 ~acceptors:[ 10; 11; 12 ] ~replicas:[ 0; 1 ]

let p1b src blt accepted = Leader.Msg (M.P1b { src; b = blt; accepted })
let p2b src blt s = Leader.Msg (M.P2b { src; b = blt; s })

let test_leader_scout_adoption () =
  let l = mk_leader () in
  let l, acts = Leader.step l Leader.Start in
  Alcotest.(check int) "p1a to all acceptors" 3 (List.length acts);
  let blt = Leader.ballot l in
  let l, _ = Leader.step l (p1b 10 blt []) in
  Alcotest.(check bool) "not yet" false (Leader.is_active l);
  let l, _ = Leader.step l (p1b 11 blt []) in
  Alcotest.(check bool) "majority adopted" true (Leader.is_active l)

let test_leader_commander_decision () =
  let l = mk_leader () in
  let l, _ = Leader.step l Leader.Start in
  let blt = Leader.ballot l in
  let l, _ = Leader.step l (p1b 10 blt []) in
  let l, _ = Leader.step l (p1b 11 blt []) in
  let l, acts = Leader.step l (Leader.Msg (M.Propose { s = 0; c = "cmd" })) in
  Alcotest.(check int) "p2a to all acceptors" 3 (List.length acts);
  let l, acts1 = Leader.step l (p2b 10 blt 0) in
  Alcotest.(check int) "no decision yet" 0 (List.length acts1);
  let _, acts2 = Leader.step l (p2b 11 blt 0) in
  let decisions =
    List.filter_map
      (function
        | Leader.Send (dst, M.Decision { s; c }) -> Some (dst, s, c)
        | Leader.Send _ | Leader.Set_timer _ -> None)
      acts2
  in
  Alcotest.(check (list (triple int int string)))
    "decision to both replicas"
    [ (0, 0, "cmd"); (1, 0, "cmd") ]
    decisions

let test_leader_adopts_prior_accepts () =
  (* A newly adopted leader must command previously accepted pvalues, not
     its own proposal for the same slot (the core Synod safety move). *)
  let l = mk_leader () in
  let l, _ = Leader.step l (Leader.Msg (M.Propose { s = 0; c = "mine" })) in
  let l, _ = Leader.step l Leader.Start in
  let blt = Leader.ballot l in
  let prior = { M.b = b (-1) 9; s = 0; c = "theirs" } in
  let l, _ = Leader.step l (p1b 10 blt [ prior ]) in
  let _, acts = Leader.step l (p1b 11 blt []) in
  let commanded =
    List.filter_map
      (function
        | Leader.Send (_, M.P2a { pv; _ }) -> Some pv.M.c
        | Leader.Send _ | Leader.Set_timer _ -> None)
      acts
  in
  Alcotest.(check bool) "commands the accepted value" true
    (List.mem "theirs" commanded);
  Alcotest.(check bool) "own proposal displaced" false (List.mem "mine" commanded)

let test_leader_takeover_many_slots () =
  (* A takeover with a long history re-commands every slot: exactly one
     P2a per acceptor per slot, in ascending slot order, carrying the
     highest-ballot accepted value where the P1bs report one. *)
  let n = 3000 in
  let l = ref (mk_leader ()) in
  for s = 0 to n - 1 do
    l := fst (Leader.step !l (Leader.Msg (M.Propose { s; c = "mine" })))
  done;
  let l, _ = Leader.step !l Leader.Start in
  let blt = Leader.ballot l in
  let prior =
    List.init (n / 2) (fun i -> { M.b = b (-1) 9; s = 2 * i; c = "theirs" })
  in
  let l, _ = Leader.step l (p1b 10 blt prior) in
  let _, acts = Leader.step l (p1b 11 blt []) in
  let p2a =
    List.filter_map
      (function
        | Leader.Send (dst, M.P2a { pv; _ }) -> Some (pv.M.s, dst, pv.M.c)
        | Leader.Send _ | Leader.Set_timer _ -> None)
      acts
  in
  let expected =
    List.concat
      (List.init n (fun s ->
           let c = if s mod 2 = 0 then "theirs" else "mine" in
           List.map (fun a -> (s, a, c)) [ 10; 11; 12 ]))
  in
  Alcotest.(check int) "3 P2a per slot" (3 * n) (List.length p2a);
  Alcotest.(check bool) "slot order, accepted values win" true (p2a = expected)

let test_leader_preemption_backoff () =
  let l = mk_leader () in
  let l, _ = Leader.step l Leader.Start in
  let higher = b 7 5 in
  let l, acts = Leader.step l (p1b 10 higher []) in
  Alcotest.(check bool) "inactive after preemption" false (Leader.is_active l);
  Alcotest.(check bool) "ballot raised above preemptor" true
    (M.ballot_compare (Leader.ballot l) higher > 0);
  (match acts with
  | [ Leader.Set_timer _ ] -> ()
  | _ -> Alcotest.fail "expected backoff timer");
  let _, acts = Leader.step l Leader.Tick in
  Alcotest.(check int) "re-scouts on tick" 3 (List.length acts)

(* Replica *)

let test_replica_proposes_within_window () =
  let r = Replica.create ~self:0 ~leaders:[ 5 ] in
  let r, acts = Replica.step r (Replica.Request "a") in
  (match acts with
  | [ Replica.Send (5, M.Propose { s = 0; c = "a" }) ] -> ()
  | _ -> Alcotest.fail "expected propose at slot 0");
  let r = ref r in
  for i = 1 to Replica.window + 2 do
    let r', _ = Replica.step !r (Replica.Request (string_of_int i)) in
    r := r'
  done;
  Alcotest.(check int) "nothing performed yet" 0 (Replica.slot_out !r)

let test_replica_performs_in_order () =
  let r = Replica.create ~self:0 ~leaders:[ 5 ] in
  let r, _ = Replica.step r (Replica.Msg (M.Decision { s = 1; c = "b" })) in
  Alcotest.(check int) "gap blocks delivery" 0 (Replica.slot_out r);
  let r, acts = Replica.step r (Replica.Msg (M.Decision { s = 0; c = "a" })) in
  let performed =
    List.filter_map
      (function
        | Replica.Perform { s; c } -> Some (s, c)
        | Replica.Send _ -> None)
      acts
  in
  Alcotest.(check (list (pair int string)))
    "both performed in slot order"
    [ (0, "a"); (1, "b") ]
    performed;
  Alcotest.(check int) "slot_out advanced" 2 (Replica.slot_out r)

let test_replica_reproposes_lost_slot () =
  let r = Replica.create ~self:0 ~leaders:[ 5 ] in
  let r, _ = Replica.step r (Replica.Request "mine") in
  let r, acts = Replica.step r (Replica.Msg (M.Decision { s = 0; c = "other" })) in
  let reproposed =
    List.filter_map
      (function
        | Replica.Send (_, M.Propose { s; c }) -> Some (s, c)
        | Replica.Send _ | Replica.Perform _ -> None)
      acts
  in
  Alcotest.(check (list (pair int string)))
    "re-proposed at the next slot"
    [ (1, "mine") ]
    reproposed;
  ignore r

let test_replica_duplicate_decision_ignored () =
  let r = Replica.create ~self:0 ~leaders:[ 5 ] in
  let r, a1 = Replica.step r (Replica.Msg (M.Decision { s = 0; c = "a" })) in
  let _, a2 = Replica.step r (Replica.Msg (M.Decision { s = 0; c = "a" })) in
  Alcotest.(check int) "first performs" 1
    (List.length (List.filter (function Replica.Perform _ -> true | _ -> false) a1));
  Alcotest.(check int) "second is a no-op" 0 (List.length a2)

(* TwoThird *)

let test_twothird_unanimous () =
  (* Three members all propose the same value: everyone decides it in
     round 0. *)
  let members = [ 0; 1; 2 ] in
  let ts = List.map (fun self -> Twothird.create ~self ~members) members in
  let states = Array.of_list ts in
  let inbox = Queue.create () in
  let decided = Array.make 3 None in
  let handle i acts =
    List.iter
      (function
        | Twothird.Send (dst, m) -> Queue.push (i, dst, m) inbox
        | Twothird.Decide v ->
            Alcotest.(check bool) "single decision" true (decided.(i) = None);
            decided.(i) <- Some v)
      acts
  in
  List.iteri
    (fun i _ ->
      let t, acts = Twothird.step states.(i) (Twothird.Propose "v") in
      states.(i) <- t;
      handle i acts)
    members;
  let rec drain () =
    match Queue.take_opt inbox with
    | None -> ()
    | Some (src, dst, m) ->
        let t, acts = Twothird.step states.(dst) (Twothird.Recv { src; msg = m }) in
        states.(dst) <- t;
        handle dst acts;
        drain ()
  in
  drain ();
  Array.iter
    (fun d -> Alcotest.(check (option string)) "decided v" (Some "v") d)
    decided

(* Randomized whole-protocol harness for TwoThird: random proposals and
   random (possibly duplicated) delivery order; checks agreement and
   validity. *)
let run_twothird_random ~n ~seed ~dup_prob ~drop_prob =
  let rng = Sim.Prng.create seed in
  let members = List.init n Fun.id in
  let states = Array.of_list (List.map (fun self -> Twothird.create ~self ~members) members) in
  let pending = ref [] in
  let decided = Array.make n [] in
  let proposals = Array.init n (fun i -> Printf.sprintf "p%d" (i mod 3)) in
  let handle i acts =
    List.iter
      (function
        | Twothird.Send (dst, m) ->
            if Sim.Prng.float rng >= drop_prob then begin
              pending := (i, dst, m) :: !pending;
              if Sim.Prng.float rng < dup_prob then
                pending := (i, dst, m) :: !pending
            end
        | Twothird.Decide v -> decided.(i) <- v :: decided.(i))
      acts
  in
  Array.iteri
    (fun i p ->
      let t, acts = Twothird.step states.(i) (Twothird.Propose p) in
      states.(i) <- t;
      handle i acts)
    proposals;
  let steps = ref 0 in
  while !pending <> [] && !steps < 20_000 do
    incr steps;
    let k = Sim.Prng.int rng (List.length !pending) in
    let src, dst, m = List.nth !pending k in
    pending := List.filteri (fun j _ -> j <> k) !pending;
    let t, acts = Twothird.step states.(dst) (Twothird.Recv { src; msg = m }) in
    states.(dst) <- t;
    handle dst acts
  done;
  (decided, proposals)

let prop_twothird_agreement_validity =
  QCheck.Test.make ~name:"TwoThird agreement+validity (random schedules)"
    ~count:60
    QCheck.(pair (int_range 3 7) small_int)
    (fun (n, seed) ->
      let decided, proposals = run_twothird_random ~n ~seed ~dup_prob:0.2 ~drop_prob:0.0 in
      let values =
        Array.to_list decided |> List.concat |> List.sort_uniq compare
      in
      (* Agreement: at most one value decided system-wide; integrity: at
         most one decision per member; validity: the value was proposed. *)
      List.length values <= 1
      && Array.for_all (fun l -> List.length l <= 1) decided
      && List.for_all (fun v -> Array.exists (fun p -> p = v) proposals) values)

let prop_twothird_safe_under_loss =
  QCheck.Test.make ~name:"TwoThird safety under message loss" ~count:60
    QCheck.(pair (int_range 3 7) small_int)
    (fun (n, seed) ->
      let decided, proposals = run_twothird_random ~n ~seed ~dup_prob:0.1 ~drop_prob:0.25 in
      let values =
        Array.to_list decided |> List.concat |> List.sort_uniq compare
      in
      List.length values <= 1
      && List.for_all (fun v -> Array.exists (fun p -> p = v) proposals) values)

(* Whole-core harness: members of a Consensus_intf.S implementation with
   random scheduling; checks total-order agreement of delivered commands. *)
module Core_harness (C : I.S) = struct
  let run ~n ~seed ~cmds_per_member ~drop_prob ~max_steps =
    let rng = Sim.Prng.create seed in
    let members = List.init n Fun.id in
    let states = Array.of_list (List.map (fun self -> C.create ~self ~members) members) in
    let pending = ref [] in
    let delivered = Array.make n [] in
    let timers = ref [] in
    let handle i acts =
      List.iter
        (function
          | I.Send (dst, m) ->
              if Sim.Prng.float rng >= drop_prob then
                pending := (i, dst, m) :: !pending
          | I.Deliver { s; c } -> delivered.(i) <- (s, c) :: delivered.(i)
          | I.Set_timer _ -> timers := i :: !timers)
        acts
    in
    Array.iteri
      (fun i st ->
        let st, acts = C.start st in
        states.(i) <- st;
        handle i acts)
      (Array.copy states);
    for i = 0 to n - 1 do
      for j = 0 to cmds_per_member - 1 do
        let st, acts = C.propose states.(i) (Printf.sprintf "c%d.%d" i j) in
        states.(i) <- st;
        handle i acts
      done
    done;
    let expected = n * cmds_per_member in
    let all_done () =
      Array.for_all (fun l -> List.length l >= expected) delivered
    in
    let steps = ref 0 in
    let continue = ref true in
    while !continue && !steps < max_steps && not (all_done ()) do
      incr steps;
      match !pending with
      | [] -> (
          (* Quiescent: fire a pending timer, if any (retransmission). *)
          match !timers with
          | [] -> continue := false
          | i :: rest ->
              timers := rest;
              let st, acts = C.tick states.(i) in
              states.(i) <- st;
              handle i acts)
      | l ->
          let k = Sim.Prng.int rng (List.length l) in
          let src, dst, m = List.nth l k in
          pending := List.filteri (fun j _ -> j <> k) l;
          let st, acts = C.recv states.(dst) ~src m in
          states.(dst) <- st;
          handle dst acts
    done;
    Array.map (fun l -> List.rev l) delivered

  (* Delivered sequences must be slot-consecutive and prefix-compatible. *)
  let check_agreement delivered =
    let ok_consecutive l = List.for_all2 (fun (s, _) i -> s = i) l (List.init (List.length l) Fun.id) in
    let seqs = Array.to_list delivered in
    List.for_all ok_consecutive seqs
    &&
    let rec prefix_ok a b =
      match (a, b) with
      | [], _ | _, [] -> true
      | x :: a', y :: b' -> x = y && prefix_ok a' b'
    in
    List.for_all
      (fun a -> List.for_all (fun b -> prefix_ok a b) seqs)
      seqs
end

module Paxos_harness = Core_harness (Consensus.Paxos)
module Twothird_harness = Core_harness (Consensus.Twothird_multi)

(* A leader takeover on a 3-member Paxos core after [n] decided slots,
   with FIFO delivery: member 0 leads while the history builds up, then
   it is cut off and member 1 ticks. The new leader re-commands all [n]
   slots; the P2a to its own acceptor is handled inside the core, so on
   the wire it sends one P2a per slot to each of members 0 and 2. *)
let test_paxos_takeover_after_history () =
  let module P = Consensus.Paxos in
  let n = 3000 in
  let st = Array.init 3 (fun i -> P.create ~self:i ~members:[ 0; 1; 2 ]) in
  let q = Queue.create () in
  let down = ref (-1) in
  let from_1 = ref [] in
  let delivered = Array.make 3 [] in
  let run i f =
    let s, acts = f st.(i) in
    st.(i) <- s;
    List.iter
      (function
        | I.Send (dst, m) ->
            if i = 1 then from_1 := (dst, m) :: !from_1;
            if i <> !down && dst <> !down then Queue.add (i, dst, m) q
        | I.Deliver { s; c } -> delivered.(i) <- (s, c) :: delivered.(i)
        | I.Set_timer _ -> ())
      acts
  in
  let drain () =
    while not (Queue.is_empty q) do
      let src, dst, m = Queue.pop q in
      run dst (fun s -> P.recv s ~src m)
    done
  in
  Array.iteri (fun i _ -> run i P.start) st;
  drain ();
  for k = 0 to n - 1 do
    run 0 (fun s -> P.propose s (Printf.sprintf "c%d" k));
    drain ()
  done;
  Alcotest.(check int) "history decided" n (List.length delivered.(2));
  down := 0;
  from_1 := [];
  run 1 P.tick;
  drain ();
  Alcotest.(check bool) "member 1 leads" true (P.leader_active st.(1));
  let sent kind =
    List.filter_map
      (function
        | dst, M.P2a { pv; _ } when kind = `P2a -> Some (pv.M.s, dst)
        | dst, M.Decision { s; _ } when kind = `Decision -> Some (s, dst)
        | _ -> None)
      (List.rev !from_1)
  in
  let per_slot = List.concat (List.init n (fun s -> [ (s, 0); (s, 2) ])) in
  Alcotest.(check int) "one P2a per slot to each peer" (2 * n)
    (List.length (sent `P2a));
  Alcotest.(check bool) "P2a in slot order" true (sent `P2a = per_slot);
  (* Member 0 is down, so each decision needs the local acceptor's vote
     as well as member 2's: every slot re-decided proves all three P2a. *)
  Alcotest.(check bool) "every slot re-decided" true
    (sent `Decision = per_slot);
  run 1 (fun s -> P.propose s "after");
  drain ();
  List.iter
    (fun i ->
      Alcotest.(check (pair int string))
        (Printf.sprintf "member %d decides the next slot" i)
        (n, "after") (List.hd delivered.(i)))
    [ 1; 2 ]

let prop_paxos_core_agreement =
  QCheck.Test.make ~name:"Paxos core: total order agreement" ~count:40
    QCheck.small_int
    (fun seed ->
      let d = Paxos_harness.run ~n:3 ~seed ~cmds_per_member:4 ~drop_prob:0.0 ~max_steps:20_000 in
      Paxos_harness.check_agreement d
      (* Liveness under reliable delivery: everything decided. *)
      && Array.for_all (fun l -> List.length l = 12) d)

let prop_paxos_core_safe_under_loss =
  QCheck.Test.make ~name:"Paxos core: safety under loss" ~count:40
    QCheck.small_int
    (fun seed ->
      let d = Paxos_harness.run ~n:3 ~seed ~cmds_per_member:3 ~drop_prob:0.15 ~max_steps:20_000 in
      Paxos_harness.check_agreement d)

let prop_twothird_core_agreement =
  QCheck.Test.make ~name:"TwoThird core: total order agreement" ~count:40
    QCheck.small_int
    (fun seed ->
      let d = Twothird_harness.run ~n:4 ~seed ~cmds_per_member:3 ~drop_prob:0.0 ~max_steps:20_000 in
      Twothird_harness.check_agreement d
      && Array.for_all (fun l -> List.length l = 12) d)

let prop_twothird_core_no_creation =
  QCheck.Test.make ~name:"TwoThird core: no creation, no duplication" ~count:40
    QCheck.small_int
    (fun seed ->
      let d = Twothird_harness.run ~n:4 ~seed ~cmds_per_member:2 ~drop_prob:0.0 ~max_steps:20_000 in
      Array.for_all
        (fun l ->
          let cmds = List.map snd l in
          List.length (List.sort_uniq compare cmds) = List.length cmds
          && List.for_all
               (fun c -> String.length c > 1 && c.[0] = 'c')
               cmds)
        d)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "consensus"
    [
      ("ballot", [ Alcotest.test_case "order" `Quick test_ballot_order ]);
      ( "acceptor",
        [
          Alcotest.test_case "promise monotone" `Quick
            test_acceptor_promise_monotone;
          Alcotest.test_case "accepts at promise" `Quick
            test_acceptor_accepts_at_or_above_promise;
          Alcotest.test_case "rejects below promise" `Quick
            test_acceptor_rejects_below_promise;
          Alcotest.test_case "highest ballot per slot" `Quick
            test_acceptor_keeps_highest_ballot_per_slot;
        ] );
      ( "leader",
        [
          Alcotest.test_case "scout adoption" `Quick test_leader_scout_adoption;
          Alcotest.test_case "commander decision" `Quick
            test_leader_commander_decision;
          Alcotest.test_case "adopts prior accepts" `Quick
            test_leader_adopts_prior_accepts;
          Alcotest.test_case "preemption backoff" `Quick
            test_leader_preemption_backoff;
          Alcotest.test_case "takeover of 3000 slots" `Quick
            test_leader_takeover_many_slots;
        ] );
      ( "replica",
        [
          Alcotest.test_case "window" `Quick test_replica_proposes_within_window;
          Alcotest.test_case "in-order perform" `Quick
            test_replica_performs_in_order;
          Alcotest.test_case "reproposal" `Quick test_replica_reproposes_lost_slot;
          Alcotest.test_case "duplicate decision" `Quick
            test_replica_duplicate_decision_ignored;
        ] );
      ( "twothird",
        [
          Alcotest.test_case "unanimous" `Quick test_twothird_unanimous;
          qt prop_twothird_agreement_validity;
          qt prop_twothird_safe_under_loss;
        ] );
      ( "cores",
        [
          qt prop_paxos_core_agreement;
          qt prop_paxos_core_safe_under_loss;
          qt prop_twothird_core_agreement;
          qt prop_twothird_core_no_creation;
          Alcotest.test_case "paxos takeover after 3000 slots" `Quick
            test_paxos_takeover_after_history;
        ] );
    ]
