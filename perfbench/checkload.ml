(* The verification workload: seeded random walks of the model checker
   over Paxos (random crash/partition plans), the TOB, and durable SMR
   (crash-and-recover plans through real WAL recovery, in-memory
   backend). No sockets, codec or file I/O: only the simulator,
   consensus, broadcast and the checker itself.

   A round runs each walk with a fixed schedule budget. The traced
   variant wraps [Scenario.make] and the running scenario's [step],
   [fingerprint], [check] and [finalize]. *)

type walk = {
  scenario : Check.Scenario.t;
  budget : int;
  faults : [ `None | `Crash | `Recovery ];
  max_depth : int option;
}

let walks =
  [
    { scenario = Check.Scenarios.paxos; budget = 1000; faults = `Crash;
      max_depth = None };
    { scenario = Check.Scenarios.tob; budget = 500; faults = `None;
      max_depth = None };
    (* Depth matters: shallow plans crash before anything commits. *)
    { scenario = Check.Scenarios.smr_durable; budget = 40;
      faults = `Recovery; max_depth = Some 300 };
  ]

let budget_per_round = List.fold_left (fun a w -> a + w.budget) 0 walks

(* Per-schedule wall time (make to finalize) goes to [lat]. *)
let instrument ~traced ~lat (s : Check.Scenario.t) =
  let span layer f = if traced then Probe.span layer f else f () in
  {
    s with
    Check.Scenario.make =
      (fun ~seed ~sched ->
        let t0 = Probe.now_s () in
        let r = span Probe.Make (fun () -> s.Check.Scenario.make ~seed ~sched) in
        let finalize () =
          let v = span Probe.Monitor r.Check.Scenario.finalize in
          Hist.add lat (Probe.now_s () -. t0);
          v
        in
        if traced then
          {
            r with
            Check.Scenario.step = (fun () -> Probe.span Probe.Step r.step);
            fingerprint =
              (fun () -> Probe.span Probe.Fingerprint r.fingerprint);
            check = (fun () -> Probe.span Probe.Monitor r.check);
            finalize;
          }
        else { r with finalize });
  }

let walk_seed ~seed ~round = (seed * 7_919) + round

type round = {
  setup : float;
  schedules : int;
  lat : Hist.t;  (* the round's per-schedule wall times, seconds *)
  events : int;
  wall : float;
  fails : string list;
}

(* Set-up: build each scenario's first world and run one schedule of it,
   so lazy initialisation and caches are done before the window. *)
let warm_up ~seed =
  List.iter
    (fun w ->
      ignore
        (Check.Scenario.run w.scenario ~seed
           ~sched:(Check.Sched.random ~slack:Check.Sched.default_slack
                     ~width:Check.Sched.default_width seed)))
    walks

let run_round ~traced ~seed ~round =
  let lat = Hist.create () in
  Gc.compact ();
  let s0 = Probe.now_s () in
  let wseed = walk_seed ~seed ~round in
  warm_up ~seed:wseed;
  let setup = Probe.now_s () -. s0 in
  Probe.reset ();
  let t0 = Probe.now_s () in
  let reports =
    List.map
      (fun w ->
        let sc = instrument ~traced ~lat w.scenario in
        ( w,
          match w.faults with
          | (`None | `Crash) as f ->
              Check.Explore.random_walk ~random_faults:(f = `Crash)
                ?max_depth:w.max_depth sc ~seed:wseed ~budget:w.budget ()
          | `Recovery ->
              Check.Explore.random_walk ~fault_gen:Check.Fault.random_recovery
                ?max_depth:w.max_depth sc ~seed:wseed ~budget:w.budget () ))
      walks
  in
  let wall = Probe.now_s () -. t0 in
  let fails =
    List.concat_map
      (fun (w, (r : Check.Explore.report)) ->
        (match r.violation with
        | None -> []
        | Some _ -> [ Printf.sprintf "%s: violation found" r.protocol ])
        @
        if r.schedules <> w.budget then
          [ Printf.sprintf "%s: ran %d of %d schedules" r.protocol r.schedules
              w.budget ]
        else [])
      reports
  in
  {
    setup;
    lat;
    schedules = List.fold_left (fun a (_, r) -> a + r.Check.Explore.schedules) 0 reports;
    events = List.fold_left (fun a (_, r) -> a + r.Check.Explore.total_events) 0 reports;
    wall;
    fails;
  }
