(* Tests for the total-order broadcast service on the simulator: total
   order, no duplication, no creation, batching, consensus-module
   switching, and leader-crash failover. *)

module Engine = Sim.Engine
module Tob = Broadcast.Tob
module Shell_paxos = Broadcast.Shell.Make (Consensus.Paxos)
module Shell_tt = Broadcast.Shell.Make (Consensus.Twothird_multi)

type 'svc wire = Svc of 'svc | Note of Tob.deliver

(* Generic driver: spawns an order observer, the service (via
   [spawn_service], which closes over the world), and [n_clients]
   closed-loop clients that broadcast [msgs_per_client] messages each,
   resending on timeout with contact rotation. Returns (latencies,
   #clients completed, observer's delivery stream). *)
let run_tob ~world ~spawn_service ~mk_broadcast ~n_clients ~msgs_per_client
    ~crash_first_member_at () =
  let latencies = Stats.Sample.create () in
  let client_ids = ref [] in
  let members = ref [] in
  let completed = ref 0 in
  let order = ref [] in
  let observer =
    Engine.spawn world ~name:"order-observer" (fun () _ctx -> function
      | Engine.Recv { msg = Note d; _ } -> order := d :: !order
      | Engine.Recv _ | Engine.Init | Engine.Timer _ -> ())
  in
  let mk_client () =
    let locref = ref (-1) in
    let id =
      Engine.spawn world ~name:"client" (fun () ->
          let next_id = ref 0 in
          let sent_at = ref 0.0 in
          let attempt = ref 0 in
          let timer = ref (-1) in
          let send ctx =
            let ms = !members in
            let contact = List.nth ms (!attempt mod List.length ms) in
            incr attempt;
            sent_at := Engine.time ctx;
            Engine.send ctx contact
              (Svc
                 (mk_broadcast
                    { Tob.origin = !locref; id = !next_id; payload = "m" }));
            timer := Engine.set_timer ctx 3.0 "retry"
          in
          fun ctx -> function
            | Engine.Init -> send ctx
            | Engine.Recv { msg = Note d; _ } ->
                if
                  d.Tob.entry.Tob.origin = !locref
                  && d.Tob.entry.Tob.id = !next_id
                then begin
                  Engine.cancel_timer ctx !timer;
                  Stats.Sample.add latencies (Engine.time ctx -. !sent_at);
                  incr next_id;
                  if !next_id < msgs_per_client then send ctx
                  else incr completed
                end
            | Engine.Recv _ -> ()
            | Engine.Timer _ -> if !next_id < msgs_per_client then send ctx)
    in
    locref := id;
    id
  in
  let svc = spawn_service ~subscribers:(fun () -> observer :: !client_ids) in
  members := svc;
  client_ids := List.init n_clients (fun _ -> mk_client ());
  (match crash_first_member_at with
  | Some t -> Engine.at world t (fun () -> Engine.crash world (List.hd svc))
  | None -> ());
  Engine.run ~until:300.0 ~max_events:5_000_000 world;
  (latencies, !completed, List.rev !order)

let run_paxos ?crash_first_member_at ~n_clients ~msgs_per_client () =
  let world = Engine.create ~seed:7 () in
  run_tob ~world
    ~spawn_service:(fun ~subscribers ->
      Shell_paxos.spawn ~world:(Runtime.Of_sim.of_engine world)
        ~inj:(fun m -> Svc m)
        ~prj:(function Svc m -> Some m | Note _ -> None)
        ~inj_notify:(fun d -> Note d)
        ~n:3 ~subscribers ())
    ~mk_broadcast:(fun e -> Shell_paxos.T.Broadcast e)
    ~n_clients ~msgs_per_client ~crash_first_member_at ()

let run_twothird ~n_clients ~msgs_per_client () =
  let world = Engine.create ~seed:11 () in
  run_tob ~world
    ~spawn_service:(fun ~subscribers ->
      Shell_tt.spawn ~world:(Runtime.Of_sim.of_engine world)
        ~inj:(fun m -> Svc m)
        ~prj:(function Svc m -> Some m | Note _ -> None)
        ~inj_notify:(fun d -> Note d)
        ~n:4 ~subscribers ())
    ~mk_broadcast:(fun e -> Shell_tt.T.Broadcast e)
    ~n_clients ~msgs_per_client ~crash_first_member_at:None ()

let check_total_order_stream order =
  (* The observer receives one notification per member per delivery: a
     seqno must always carry the same entry. *)
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (d : Tob.deliver) ->
      match Hashtbl.find_opt tbl d.Tob.seqno with
      | None -> Hashtbl.add tbl d.Tob.seqno d.Tob.entry
      | Some e ->
          Alcotest.(check bool)
            (Printf.sprintf "seqno %d consistent" d.Tob.seqno)
            true
            (e = d.Tob.entry))
    order

let distinct_entries order =
  List.length (List.sort_uniq compare (List.map (fun d -> d.Tob.entry) order))

let test_paxos_tob_basic () =
  let latencies, completed, order = run_paxos ~n_clients:2 ~msgs_per_client:10 () in
  Alcotest.(check int) "all clients completed" 2 completed;
  Alcotest.(check int) "20 distinct messages delivered" 20 (distinct_entries order);
  check_total_order_stream order;
  Alcotest.(check bool) "latency sane (>0, <1s)" true
    (Stats.Sample.mean latencies > 0.0 && Stats.Sample.mean latencies < 1.0)

let test_paxos_tob_many_clients_batching () =
  let _, completed, order = run_paxos ~n_clients:8 ~msgs_per_client:5 () in
  Alcotest.(check int) "all clients completed" 8 completed;
  check_total_order_stream order;
  Alcotest.(check int) "40 messages delivered" 40 (distinct_entries order)

let test_paxos_tob_leader_crash () =
  (* Crash the initial leader mid-run: the survivors take over (suspect
     timeout → re-scout) and clients complete via contact rotation. *)
  let _, completed, order =
    run_paxos ~crash_first_member_at:0.05 ~n_clients:2 ~msgs_per_client:6 ()
  in
  Alcotest.(check int) "all clients completed despite crash" 2 completed;
  check_total_order_stream order

let test_paxos_tob_partition_heal () =
  (* Partition the leader from both peers mid-run: progress stalls (no
     majority reachable from it), the survivors elect a new leader after
     the suspect timeout, and all client messages still get delivered. *)
  let world = Engine.create ~seed:13 () in
  let order = ref [] in
  let observer =
    Engine.spawn world ~name:"order-observer" (fun () _ctx -> function
      | Engine.Recv { msg = Note d; _ } -> order := d :: !order
      | Engine.Recv _ | Engine.Init | Engine.Timer _ -> ())
  in
  let latencies, completed, _ =
    run_tob ~world
      ~spawn_service:(fun ~subscribers ->
        let svc =
          Shell_paxos.spawn ~world:(Runtime.Of_sim.of_engine world)
            ~inj:(fun m -> Svc m)
            ~prj:(function Svc m -> Some m | Note _ -> None)
            ~inj_notify:(fun d -> Note d)
            ~n:3
            ~subscribers:(fun () -> observer :: subscribers ())
            ()
        in
        (match svc with
        | [ a; b; c ] ->
            Engine.at world 0.05 (fun () ->
                Engine.partition world a b;
                Engine.partition world a c);
            Engine.at world 2.0 (fun () ->
                Engine.heal world a b;
                Engine.heal world a c)
        | _ -> ());
        svc)
      ~mk_broadcast:(fun e -> Shell_paxos.T.Broadcast e)
      ~n_clients:2 ~msgs_per_client:8 ~crash_first_member_at:None ()
  in
  ignore latencies;
  Alcotest.(check int) "all clients completed through the partition" 2 completed;
  check_total_order_stream (List.rev !order)

let test_twothird_tob_basic () =
  let _, completed, order = run_twothird ~n_clients:3 ~msgs_per_client:5 () in
  Alcotest.(check int) "all clients completed" 3 completed;
  check_total_order_stream order;
  Alcotest.(check int) "15 messages delivered" 15 (distinct_entries order)

(* Pure-level TOB unit tests (no simulator). *)
module T = Tob.Make (Consensus.Paxos)

let test_tob_single_member_delivery () =
  let t = T.create ~batch_cap:10 ~self:0 ~members:[ 0 ] ~subscribers:[ 99 ] () in
  let t, _ = T.start t ~now:0.0 in
  (* With a single member, consensus completes synchronously via local
     short-circuiting: each broadcast is immediately delivered. *)
  let e i = { Tob.origin = 5; id = i; payload = "p" } in
  let t, acts1 = T.recv t ~now:0.1 ~src:5 (T.Broadcast (e 0)) in
  let notifies = List.filter (function T.Notify _ -> true | _ -> false) acts1 in
  Alcotest.(check int) "delivered to subscriber" 1 (List.length notifies);
  Alcotest.(check int) "seqno assigned" 1 (T.delivered t)

let test_tob_duplicate_suppression () =
  let t = T.create ~self:0 ~members:[ 0 ] ~subscribers:[ 99 ] () in
  let t, _ = T.start t ~now:0.0 in
  let e = { Tob.origin = 5; id = 7; payload = "p" } in
  let t, _ = T.recv t ~now:0.1 ~src:5 (T.Broadcast e) in
  let t, acts = T.recv t ~now:0.2 ~src:5 (T.Broadcast e) in
  let notifies = List.filter (function T.Notify _ -> true | _ -> false) acts in
  Alcotest.(check int) "duplicate not re-delivered" 0 (List.length notifies);
  Alcotest.(check int) "count unchanged" 1 (T.delivered t)

(* Payloads of the [Notify] actions in [acts], in emission order. *)
let notified_payloads acts =
  List.filter_map
    (function T.Notify (_, d) -> Some d.Tob.entry.Tob.payload | _ -> None)
    acts

let test_tob_log_order () =
  let t = T.create ~self:0 ~members:[ 0 ] ~subscribers:[ 99 ] () in
  let t, _ = T.start t ~now:0.0 in
  let t = ref t in
  let log = ref [] in
  for i = 0 to 4 do
    let t', acts =
      T.recv !t ~now:0.1 ~src:5
        (T.Broadcast { Tob.origin = 5; id = i; payload = string_of_int i })
    in
    t := t';
    log := !log @ notified_payloads acts
  done;
  Alcotest.(check (list string)) "log in submission order"
    [ "0"; "1"; "2"; "3"; "4" ]
    !log

(* Distinct consensus slots this member has open proposals for, read off
   the outgoing core messages. *)
let proposed_slots acts =
  List.sort_uniq compare
    (List.filter_map
       (function
         | T.Send (_, T.Core (Consensus.Paxos_msg.Propose { s; _ })) -> Some s
         | _ -> None)
       acts)

let test_tob_pipelining_window () =
  (* Three members, so proposals stay in flight (no local majority); batch
     cap 1 makes every entry its own batch. With window 2 a member opens
     two consensus slots before the first decision; with the default
     window it holds the second entry back. *)
  let feed window =
    let t =
      T.create ~batch_cap:1 ~window ~self:0 ~members:[ 0; 1; 2 ]
        ~subscribers:[ 99 ] ()
    in
    let t, _ = T.start t ~now:0.0 in
    let e i = { Tob.origin = 5; id = i; payload = "p" } in
    let acts = ref [] in
    let t = ref t in
    for i = 0 to 2 do
      let t', a = T.recv !t ~now:0.1 ~src:5 (T.Broadcast (e i)) in
      t := t';
      acts := !acts @ a
    done;
    proposed_slots !acts
  in
  Alcotest.(check (list int)) "window 1: one slot open" [ 0 ] (feed 1);
  Alcotest.(check (list int)) "window 2: two slots open" [ 0; 1 ] (feed 2);
  Alcotest.(check (list int)) "window 4: three slots open" [ 0; 1; 2 ] (feed 4)

let test_tob_pipelined_delivery_in_order () =
  (* Single member: consensus is synchronous, so a window of 4 exercises
     propose-deliver interleaving while every entry still comes out in
     submission order with dense seqnos. *)
  let t =
    T.create ~batch_cap:1 ~window:4 ~self:0 ~members:[ 0 ] ~subscribers:[ 99 ]
      ()
  in
  let t, _ = T.start t ~now:0.0 in
  let t = ref t in
  let seqnos = ref [] in
  let log = ref [] in
  for i = 0 to 5 do
    let t', acts =
      T.recv !t ~now:0.1 ~src:5
        (T.Broadcast { Tob.origin = 5; id = i; payload = string_of_int i })
    in
    t := t';
    List.iter
      (function
        | T.Notify (_, d) -> seqnos := d.Tob.seqno :: !seqnos
        | _ -> ())
      acts;
    log := !log @ notified_payloads acts
  done;
  Alcotest.(check (list int)) "dense seqnos in submission order"
    [ 0; 1; 2; 3; 4; 5 ] (List.rev !seqnos);
  Alcotest.(check (list string)) "log in submission order"
    [ "0"; "1"; "2"; "3"; "4"; "5" ]
    !log

(* ---- the dedup set, against a set of pairs --------------------------- *)

module Seen = Tob.Seen
module Pair_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

(* [Run (origin, start, n)] adds start, start + 1, ..., in order. *)
type seen_op = Add of int * int | Mem of int * int | Run of int * int * int

let show_seen_op = function
  | Add (o, i) -> Printf.sprintf "add %d %d" o i
  | Mem (o, i) -> Printf.sprintf "mem %d %d" o i
  | Run (o, i, n) -> Printf.sprintf "run %d %d+%d" o i n

(* Ids mix a dense range (in order, out of order and repeated), negative
   ids, both ends of the int range and arbitrary sparse ints. *)
let gen_seen_op =
  let open QCheck.Gen in
  let origin = int_range (-1) 3 in
  let id =
    frequency
      [
        (6, int_range 0 40);
        (2, int_range (-20) (-1));
        (1, oneofl [ max_int; max_int - 1; min_int; min_int + 1 ]);
        (2, int);
      ]
  in
  frequency
    [
      (5, map2 (fun o i -> Add (o, i)) origin id);
      (2, map2 (fun o i -> Mem (o, i)) origin id);
      (2, map3 (fun o i n -> Run (o, i, n)) origin id (int_range 0 30));
    ]

let prop_seen_matches_model =
  QCheck.Test.make ~count:300 ~name:"seen set matches a set of pairs"
    QCheck.(
      make ~shrink:Shrink.list
        ~print:(fun ops -> String.concat "; " (List.map show_seen_op ops))
        Gen.(list_size (int_range 0 60) gen_seen_op))
    (fun ops ->
      (* Every key mentioned so far and its neighbours: the places where
         an interval boundary can be off by one. *)
      let probes = ref Pair_set.empty in
      let probe o i =
        List.iter
          (fun d -> probes := Pair_set.add (o, i + d) !probes)
          [ -1; 0; 1 ]
      in
      let agree (seen, model) =
        Pair_set.for_all
          (fun (o, i) -> Seen.mem o i seen = Pair_set.mem (o, i) model)
          !probes
      in
      let add (seen, model) o i =
        probe o i;
        (Seen.add o i seen, Pair_set.add (o, i) model)
      in
      let step st = function
        | Add (o, i) -> add st o i
        | Mem (o, i) ->
            probe o i;
            st
        | Run (o, i, n) ->
            List.fold_left
              (fun st k -> add st o (i + k))
              st (List.init n Fun.id)
      in
      let rec go st = function
        | [] -> true
        | op :: rest ->
            let st = step st op in
            agree st && go st rest
      in
      go (Seen.empty, Pair_set.empty) ops)

let prop_seen_in_order_is_compact =
  QCheck.Test.make ~count:100 ~name:"in-order ids hold nothing explicitly"
    QCheck.(
      make ~shrink:Shrink.list
        ~print:(fun l ->
          String.concat "; "
            (List.map (fun (o, i, n) -> Printf.sprintf "%d:%d+%d" o i n) l))
        Gen.(
          list_size (int_range 1 5)
            (triple (int_range 0 9) (int_range (-1000) 1_000_000)
               (int_range 0 2000))))
    (fun origins ->
      (* Origins interleave, each adding its ids in order from its own
         start; an origin listed twice continues where it stopped. *)
      let next = Hashtbl.create 8 in
      List.iter
        (fun (o, i, _) -> if not (Hashtbl.mem next o) then Hashtbl.add next o i)
        origins;
      let seen = ref Seen.empty in
      let left = ref (List.map (fun (o, _, n) -> (o, n)) origins) in
      while !left <> [] do
        left :=
          List.filter_map
            (fun (o, n) ->
              if n = 0 then None
              else begin
                let id = Hashtbl.find next o in
                Hashtbl.replace next o (id + 1);
                seen := Seen.add o id !seen;
                Some (o, n - 1)
              end)
            !left
      done;
      Seen.explicit !seen = 0)

let () =
  Alcotest.run "broadcast"
    [
      ( "tob-pure",
        [
          Alcotest.test_case "single-member delivery" `Quick
            test_tob_single_member_delivery;
          Alcotest.test_case "duplicate suppression" `Quick
            test_tob_duplicate_suppression;
          Alcotest.test_case "log order" `Quick test_tob_log_order;
          Alcotest.test_case "pipelining window opens slots" `Quick
            test_tob_pipelining_window;
          Alcotest.test_case "pipelined delivery stays in order" `Quick
            test_tob_pipelined_delivery_in_order;
        ] );
      ( "tob-sim",
        [
          Alcotest.test_case "paxos basic" `Quick test_paxos_tob_basic;
          Alcotest.test_case "paxos batching" `Quick
            test_paxos_tob_many_clients_batching;
          Alcotest.test_case "paxos leader crash" `Quick
            test_paxos_tob_leader_crash;
          Alcotest.test_case "paxos partition + heal" `Quick
            test_paxos_tob_partition_heal;
          Alcotest.test_case "twothird basic" `Quick test_twothird_tob_basic;
        ] );
      ( "tob-seen",
        List.map QCheck_alcotest.to_alcotest
          [ prop_seen_matches_model; prop_seen_in_order_is_compact ] );
    ]
