(* The benchmark's own tests.

   1. Transparency: on a fixed seed, a traced and an untraced round end
      with the same replicated state (applied counts and state hashes of
      the active replicas) and the same commit count, with and without
      the WAL; a traced and an untraced exploration visit the same
      schedules and events.
   2. Accounting: in a traced round, the layers' self times sum to the
      time covered by outermost spans, which fits inside the wall time,
      so the layer shares plus the unexplained share add up to the
      traced wall time. *)

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let accounting name ~wall =
  let total = Probe.total_self_ns () and top = !Probe.top_ns in
  let wall_ns = wall *. 1e9 in
  (* Exact unless a span straddled the window start; allow 0.1% for
     that race. *)
  check
    (Printf.sprintf "%s: layer self times sum to wrapped time (%d vs %d ns)"
       name total top)
    (abs (total - top) <= max 1000 (top / 1000));
  check
    (Printf.sprintf "%s: wrapped time fits in the wall time (%.0f of %.0f ns)"
       name (float_of_int top) wall_ns)
    (top > 0 && float_of_int top <= wall_ns);
  let shares =
    List.fold_left (fun a l -> a +. (Probe.self_s l /. wall)) 0.0 Probe.layers
  in
  let unexplained = (wall_ns -. float_of_int top) /. wall_ns in
  check
    (Printf.sprintf "%s: shares %.4f + unexplained %.4f = 1" name shares
       unexplained)
    (Float.abs (shares +. unexplained -. 1.0) < 1e-3)

let smr_round ?wal ~traced () =
  Smr.closed_round ?wal ~traced ~seed:7 ~round:0 ~clients:4 ~count:50 ()

let transparency name ?wal_dirs () =
  let dir k = Option.map (fun d -> Filename.concat d k) wal_dirs in
  let u = smr_round ?wal:(dir "untraced") ~traced:false () in
  let t = smr_round ?wal:(dir "traced") ~traced:true () in
  check (name ^ ": rounds pass their checks") (u.Smr.fails = [] && t.Smr.fails = []);
  List.iter (fun f -> Printf.printf "  %s\n" f) (u.Smr.fails @ t.Smr.fails);
  check (name ^ ": same commit count") (u.commits = t.commits && u.commits = 200);
  check (name ^ ": same replicated state") (u.replicas = t.replicas);
  t

let () =
  let t = transparency "smr_mem" () in
  accounting "smr_mem" ~wall:t.Smr.wall;
  Scratch.with_dir (fun dir ->
      List.iter (fun k -> Unix.mkdir (Filename.concat dir k) 0o755)
        [ "untraced"; "traced" ];
      let t = transparency "smr_wal" ~wal_dirs:dir () in
      accounting "smr_wal" ~wall:t.Smr.wall;
      check "smr_wal: traced run synced its WAL" (Probe.calls_of Probe.Wal_sync > 0));
  let u = Checkload.run_round ~traced:false ~seed:7 ~round:0 in
  let t = Checkload.run_round ~traced:true ~seed:7 ~round:0 in
  check "check_explore: rounds pass their checks" (u.fails = [] && t.fails = []);
  check "check_explore: same schedules and events"
    (u.schedules = t.schedules && u.events = t.events
    && u.schedules = Checkload.budget_per_round);
  accounting "check_explore" ~wall:t.Checkload.wall;
  if !failures > 0 then exit 1
