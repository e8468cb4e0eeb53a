(* Chaos drill: crash-and-recover a live ShadowDB node under traffic.

   Deploys a real 3-node SMR cluster on loopback TCP with file-backed
   durability (write-ahead log + snapshots per node) on the
   single-reactor event loop, drives closed-loop client traffic against
   it, kills one node mid-run, optionally tears its WAL tail (appending
   half an encoded record, as an interrupted write would), restarts it,
   and verifies the recovery contract from the outside:

   - the victim's recovery report shows a valid snapshot (when one was
     taken) and the torn tail truncated, never replayed;
   - recovery reaches every total-order position the crash left durable
     on disk (no committed loss);
   - the recovered state fingerprint equals the one logged at apply
     time, and a survivor's durable image at the same total-order
     position carries the same fingerprint (post-recovery agreement);
   - the cluster keeps committing throughout.

   The drill also records the delivery order of every frame (payload
   digests checked off per (src,dst) link end-to-end through the real
   wire path) and gates on zero per-link FIFO violations across the
   crash — keeping the batched data plane honest against the channel
   assumption the protocols are verified under.

   The verdict and all measurements are written as a JSON artifact
   (--json) and the exit code is non-zero unless every check passed, so
   CI can gate on it. *)

open Cmdliner
module S = Shadowdb.System.Make (Consensus.Paxos)

(* ---------------------------------------------------------------- *)
(* Minimal JSON emitter (mirrors the bench harness's)                *)
(* ---------------------------------------------------------------- *)

module Json = struct
  type t = Bool of bool | Num of float | Str of string | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec emit buf indent = function
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x ->
        Buffer.add_string buf
          (if Float.is_finite x then Printf.sprintf "%.6g" x else "null")
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        let pad = String.make (indent + 2) ' ' in
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf pad;
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\": ";
            emit buf (indent + 2) v)
          fields;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make indent ' ');
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 4096 in
    emit buf 0 t;
    Buffer.add_char buf '\n';
    Buffer.contents buf

  let int n = Num (float_of_int n)
end

(* ---------------------------------------------------------------- *)
(* Drill                                                             *)
(* ---------------------------------------------------------------- *)

let bank_rows = 256

let make_deposit ~client ~seq =
  Workload.Bank.deposit
    ~account:(abs (Hashtbl.hash (client, seq)) mod bank_rows)
    ~amount:(1 + (seq mod 9))

let node_dir data_dir i = Filename.concat data_dir (Printf.sprintf "node%d" i)

(* Start every drill from empty durable state: remove only the files the
   backend itself writes, never the directory wholesale. *)
let wipe_node_dir dir =
  List.iter
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.file_exists p then Sys.remove p)
    [ "wal.log"; "snapshot.bin"; "snapshot.bin.tmp" ]

(* Half of one encoded WAL record: the on-disk shape of a write cut off
   mid-flight. Recovery must truncate it, never replay it. *)
let torn_fragment () =
  let whole =
    Durable.Wal.encode_record
      { Durable.Wal.idx = max_int / 2; aux = 0; hash = 0; payload = "torn-tail" }
  in
  String.sub whole 0 (String.length whole / 2)

type recovery_obs = {
  obs_node : int;
  obs_report : Durable.Manager.report;
  obs_state_hash : int;
  obs_at : float;  (* wall-clock seconds since drill start *)
}

let run clients count group_commit snapshot_every torn data_dir json_path
    kill_after =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let victim = 0 and survivor = 1 in
  List.iter (fun i -> wipe_node_dir (node_dir data_dir i)) [ 0; 1; 2 ];
  let codec =
    S.wire_codec ~enc_core:Shadowdb.Codec.encode_core_paxos
      ~dec_core:Shadowdb.Codec.decode_core_paxos
  in
  (* Always-on conformance recording: the drill's whole trace — including
     the crash/restart window — is saved next to the durable state and
     replayed through the LoE spec as one of the verdict's checks. *)
  let recorder =
    Conform.Recorder.create
      ~meta:
        [
          ("workload", "bank");
          ("rows", string_of_int bank_rows);
          ("runtime", "loop");
          ("drill", "crash-recover");
        ]
      ()
  in
  let tap = Conform.Recorder.tap recorder ~enc:codec.Runtime.enc in
  let rt = Runtime.Loop.create ~record_delivery:true ~tap ~codec () in
  let world = Runtime.Loop.runtime rt in
  let mu = Mutex.create () in
  let observations = ref [] in
  let durability =
    {
      S.dur_backend = (fun i -> Durable.File.create ~dir:(node_dir data_dir i) ());
      dur_policy =
        (fun i ->
          {
            Durable.Manager.group_commit;
            (* Survivors keep their whole WAL (no snapshot truncation) so
               the post-recovery cross-check below can look up the state
               fingerprint at any total-order position. *)
            snapshot_every = (if i = victim then snapshot_every else 0);
            replay_tail = true;
          });
      dur_on_recover =
        (fun i report ~state_hash ->
          Mutex.lock mu;
          observations :=
            {
              obs_node = i;
              obs_report = report;
              obs_state_hash = state_hash;
              obs_at = elapsed ();
            }
            :: !observations;
          Mutex.unlock mu);
    }
  in
  (* Long failure-detection timeout: the drill exercises durability, not
     reconfiguration, so the kill/restart window must stay well inside
     the suspicion threshold (the victim is restarted within ~a second). *)
  let tun = { Shadowdb.System.default_tuning with detect_timeout = 30.0 } in
  let cluster =
    S.spawn_smr ~tun ~durability ~world ~registry:Workload.Bank.registry
      ~setup:(Workload.Bank.setup ~rows:bank_rows)
      ~n_active:2 ()
  in
  let nodes = Array.of_list cluster.S.smr_nodes in
  let commits = ref 0 in
  let commit_series = Stats.Series.create ~bin:0.05 in
  let _, completed =
    S.spawn_clients ~world ~target:(S.To_smr cluster) ~n:clients ~count
      ~make_txn:make_deposit ~retry_timeout:1.0
      ~on_commit:(fun _ _ ->
        Mutex.lock mu;
        incr commits;
        Stats.Series.record commit_series (elapsed ());
        Mutex.unlock mu)
      ()
  in
  let commits_now () = Mutex.lock mu; let c = !commits in Mutex.unlock mu; c in
  Printf.printf
    "drill      : 3-node SMR over loopback TCP (loop runtime), file-backed WAL\n";
  Printf.printf "durability : group-commit %d, snapshot every %d (victim)\n"
    group_commit snapshot_every;
  Printf.printf "workload   : %d clients x %d deposits\n%!" clients count;
  Runtime.Loop.start rt;
  let kill_threshold =
    match kill_after with Some k -> k | None -> clients * count / 3
  in
  let warmed =
    Runtime.Loop.await ~timeout:60.0 rt (fun () ->
        commits_now () >= kill_threshold)
  in
  (* Kill the victim mid-traffic, then inspect what its disk holds — the
     exact image recovery will see. *)
  Printf.printf "kill       : node %d after %d commits (%.2fs)\n%!" victim
    (commits_now ()) (elapsed ());
  let killed_at = elapsed () in
  Runtime.Loop.crash rt nodes.(victim);
  let pre_snap, pre_log = Durable.File.read_dir (node_dir data_dir victim) in
  let torn_injected =
    if torn then begin
      let frag = torn_fragment () in
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644
          (Filename.concat (node_dir data_dir victim) "wal.log")
      in
      output_string oc frag;
      close_out oc;
      String.length frag
    end
    else 0
  in
  let pre = Durable.Manager.inspect ~snap:pre_snap ~log:pre_log in
  Printf.printf
    "disk       : snapshot %s, %d whole records, durable up to position %d%s\n%!"
    (match pre.Durable.Manager.i_snapshot with
    | Some r -> Printf.sprintf "at position %d" r.Durable.Wal.idx
    | None -> "absent")
    (List.length pre.Durable.Manager.i_records)
    pre.Durable.Manager.i_durable_idx
    (if torn then Printf.sprintf " (+%d torn bytes injected)" torn_injected
     else "");
  let restart_at = elapsed () in
  Runtime.Loop.restart rt nodes.(victim);
  let recovery_of_restart () =
    Mutex.lock mu;
    let o =
      List.find_opt
        (fun o -> o.obs_node = victim && o.obs_at >= restart_at)
        !observations
    in
    Mutex.unlock mu;
    o
  in
  let _ =
    Runtime.Loop.await ~timeout:30.0 rt (fun () ->
        recovery_of_restart () <> None)
  in
  let drained =
    Runtime.Loop.await ~timeout:120.0 rt (fun () -> completed () >= clients)
  in
  let back_at =
    match recovery_of_restart () with Some o -> o.obs_at | None -> nan
  in
  Runtime.Loop.stop rt;
  List.iter
    (fun e -> Printf.eprintf "runtime error: %s\n%!" e)
    (Runtime.Loop.errors rt);
  (* Conformance: save the recorded trace and replay it through the LoE
     delivery spec plus the invariant monitors. *)
  let trace_path = Filename.concat data_dir "drill.ctrace" in
  Conform.Recorder.save recorder trace_path;
  let trace_events = Conform.Recorder.events recorder in
  let conform_replay, conform_monitors =
    let meta = Conform.Recorder.meta recorder in
    let spec_exec = Conform.Replay.spec_exec_of_meta meta in
    ( Conform.Replay.check ?spec_exec trace_events,
      Conform.Monitors.check ~meta trace_events )
  in
  let conform_ok =
    Conform.Replay.ok conform_replay && Conform.Monitors.ok conform_monitors
  in
  Printf.printf "conformance: %s (%d events, %d deliveries replayed)\n%!"
    (if conform_ok then "trace matches the LoE spec" else "DIVERGENT")
    (List.length trace_events) conform_replay.Conform.Replay.r_delivers;
  if not conform_ok then begin
    List.iter
      (fun d -> Printf.printf "conformance: %s\n" (Format.asprintf "%a" Conform.Replay.pp_divergence d))
      conform_replay.Conform.Replay.r_divergences;
    List.iter
      (fun (n, m) -> Printf.printf "conformance: [%s] %s\n" n m)
      conform_monitors.Conform.Monitors.m_violations
  end;
  (* Verdict. Every check is computed from the recovery report plus
     read-only inspection of the on-disk images. *)
  let surv_snap, surv_log = Durable.File.read_dir (node_dir data_dir survivor) in
  let surv = Durable.Manager.inspect ~snap:surv_snap ~log:surv_log in
  let obs = recovery_of_restart () in
  let checks, recovery_json =
    match obs with
    | None ->
        ( [ ("recovery_ran", false) ],
          Json.Obj [ ("ran", Json.Bool false) ] )
    | Some { obs_report = rep; obs_state_hash; _ } ->
        let ridx = rep.Durable.Manager.recovered_idx in
        let survivor_hash = Durable.Manager.hash_at surv ridx in
        let checks =
          [
            ("recovery_ran", true);
            ( "snapshot_valid",
              rep.Durable.Manager.snapshot_valid
              || not rep.Durable.Manager.snapshot_present );
            ( "torn_tail_truncated",
              (not torn) || rep.Durable.Manager.torn_bytes >= torn_injected );
            ( "no_committed_loss",
              ridx >= pre.Durable.Manager.i_durable_idx );
            ( "state_matches_log",
              ridx < 0 || obs_state_hash = rep.Durable.Manager.recovered_hash
            );
            ( "agrees_with_survivor",
              match survivor_hash with
              | Some h -> h = rep.Durable.Manager.recovered_hash
              | None -> ridx < 0 );
            ("traffic_drained", drained && warmed);
            (* The recorded delivery order must show zero per-link FIFO
               violations across the crash window. *)
            ("per_link_fifo", Runtime.Loop.fifo_violations rt = 0);
          ]
        in
        let r = rep.Durable.Manager.recovered_idx in
        ( checks,
          Json.Obj
            [
              ("ran", Json.Bool true);
              ("snapshot_present", Json.Bool rep.Durable.Manager.snapshot_present);
              ("snapshot_valid", Json.Bool rep.Durable.Manager.snapshot_valid);
              ("snapshot_idx", Json.int rep.Durable.Manager.snapshot_idx);
              ("wal_records", Json.int rep.Durable.Manager.wal_records);
              ("wal_replayed", Json.int rep.Durable.Manager.wal_replayed);
              ("wal_stale", Json.int rep.Durable.Manager.wal_stale);
              ("torn_bytes_truncated", Json.int rep.Durable.Manager.torn_bytes);
              ("recovered_idx", Json.int r);
              (* Fingerprints are full-width ints: emit as strings so JSON
                 float precision can't mangle them. *)
              ( "recovered_hash",
                Json.Str (string_of_int rep.Durable.Manager.recovered_hash) );
              ("state_hash_after_recovery", Json.Str (string_of_int obs_state_hash));
              ( "survivor_hash_at_recovered_idx",
                match survivor_hash with
                | Some h -> Json.Str (string_of_int h)
                | None -> Json.Str "not-retained" );
              ("recovery_ms", Json.Num ((back_at -. restart_at) *. 1e3));
            ] )
  in
  let checks = checks @ [ ("conformance", conform_ok) ] in
  let ok = List.for_all snd checks in
  let down_commits =
    Stats.Series.between commit_series killed_at
      (if Float.is_nan back_at then elapsed () else back_at)
  in
  let artifact =
    Json.Obj
      [
        ( "config",
          Json.Obj
            [
              ("runtime", Json.Str "loop");
              ("clients", Json.int clients);
              ("count", Json.int count);
              ("group_commit", Json.int group_commit);
              ("snapshot_every", Json.int snapshot_every);
              ("torn_injected_bytes", Json.int torn_injected);
              ("data_dir", Json.Str data_dir);
            ] );
        ( "timeline",
          Json.Obj
            [
              ("killed_at_s", Json.Num killed_at);
              ("restarted_at_s", Json.Num restart_at);
              ("recovered_at_s", Json.Num back_at);
              ("total_s", Json.Num (elapsed ()));
            ] );
        ( "pre_crash_disk",
          Json.Obj
            [
              ("durable_idx", Json.int pre.Durable.Manager.i_durable_idx);
              ( "whole_records",
                Json.int (List.length pre.Durable.Manager.i_records) );
              ("torn_bytes", Json.int pre.Durable.Manager.i_torn);
            ] );
        ("recovery", recovery_json);
        ( "conformance",
          Json.Obj
            [
              ("trace", Json.Str trace_path);
              ("events", Json.int (List.length trace_events));
              ( "delivers_replayed",
                Json.int conform_replay.Conform.Replay.r_delivers );
              ( "checkpoints",
                Json.int conform_replay.Conform.Replay.r_checkpoints );
              ( "divergences",
                Json.int
                  (List.length conform_replay.Conform.Replay.r_divergences) );
              ( "monitor_violations",
                Json.int
                  (List.length conform_monitors.Conform.Monitors.m_violations)
              );
              ("ok", Json.Bool conform_ok);
            ] );
        ( "delivery",
          let st = Runtime.Loop.stats rt in
          Json.Obj
            [
              ("recorded", Json.Bool true);
              ("frames_sent", Json.int st.Runtime.Loop.s_sent_msgs);
              ("bytes_sent", Json.int st.Runtime.Loop.s_sent_bytes);
              ("fifo_violations", Json.int st.Runtime.Loop.s_fifo_violations);
              ( "backpressure_engagements",
                Json.int st.Runtime.Loop.s_backpressure );
            ] );
        ( "traffic",
          Json.Obj
            [
              ("commits", Json.int (commits_now ()));
              ("commits_while_down", Json.int down_commits);
              ("clients_completed", Json.int (completed ()));
            ] );
        ( "checks",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Bool v)) checks) );
        ("ok", Json.Bool ok);
      ]
  in
  let text = Json.to_string artifact in
  (match json_path with
  | Some file ->
      let oc = open_out file in
      output_string oc text;
      close_out oc;
      Printf.printf "artifact   : %s\n" file
  | None -> print_string text);
  List.iter
    (fun (k, v) -> Printf.printf "check      : %-24s %s\n" k
        (if v then "ok" else "FAILED"))
    checks;
  Printf.printf "verdict    : %s\n%!" (if ok then "recovered" else "FAILED");
  if ok then 0 else 1

let term =
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Closed-loop clients.")
  in
  let count =
    Arg.(value & opt int 60 & info [ "count" ] ~doc:"Transactions per client.")
  in
  let group_commit =
    Arg.(
      value & opt int 4
      & info [ "group-commit" ]
          ~doc:"WAL records per fsync on every node (1 = sync per commit).")
  in
  let snapshot_every =
    Arg.(
      value & opt int 25
      & info [ "snapshot-every" ]
          ~doc:
            "Victim's snapshot cadence in applied records (snapshots reset \
             its WAL; survivors never snapshot so their logs stay \
             inspectable).")
  in
  let torn =
    Arg.(
      value & flag
      & info [ "torn" ]
          ~doc:
            "After the kill, append half an encoded record to the victim's \
             WAL — recovery must truncate it, never replay it.")
  in
  let data_dir =
    Arg.(
      value & opt string "drill-data"
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:"Root of the per-node durable directories (node0/, node1/, …).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the JSON artifact here (default: stdout).")
  in
  let kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ]
          ~doc:
            "Kill the victim after this many commits (default: a third of \
             the total workload).")
  in
  Term.(
    const run $ clients $ count $ group_commit $ snapshot_every $ torn
    $ data_dir $ json $ kill_after)

let () =
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "shadowdb_drill"
             ~doc:
               "Crash-and-recover drill for a live ShadowDB cluster with \
                file-backed durability.")
          term))
