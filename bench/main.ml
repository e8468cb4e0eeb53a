(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (printed as rows/series in the paper's units), then
   runs bechamel micro-benchmarks for the design-choice ablations called
   out in DESIGN.md (optimizer on/off, storage backend diversity, SQL
   front-end, codec and Paxos step costs).

   `dune exec bench/main.exe` runs everything at quick scale;
   `dune exec bench/main.exe -- --full` uses paper-scale parameters;
   `dune exec bench/main.exe -- --skip-micro` omits the bechamel part;
   `dune exec bench/main.exe -- --json FILE` additionally runs the
   perf-trajectory measurements (simulator events/sec, TOB transaction
   throughput on the simulator and on the event-loop socket runtime, plus
   frame-path ns/frame and model-checker schedules/sec) and writes every
   number to FILE as JSON, so successive commits' files can be diffed. *)

let quick = not (Array.exists (( = ) "--full") Sys.argv)
let skip_micro = Array.exists (( = ) "--skip-micro") Sys.argv

let json_file =
  let rec go i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--json" then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Hand-rolled JSON emitter (no external dependency)                   *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  (* NaN / infinities (e.g. a failed OLS fit) have no JSON encoding. *)
  let num x = if Float.is_finite x then Num x else Null

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
    | Null -> Buffer.add_string buf "null"
    | Num x ->
        let s = Printf.sprintf "%.6g" x in
        Buffer.add_string buf s
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
        let pad = String.make (indent + 2) ' ' in
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf pad;
            emit buf (indent + 2) item)
          items;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make indent ' ');
        Buffer.add_char buf ']'
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

  let to_file file t =
    let buf = Buffer.create 4096 in
    emit buf 0 t;
    Buffer.add_char buf '\n';
    let oc = open_out file in
    output_string oc (Buffer.contents buf);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Paper tables and figures                                            *)
(* ------------------------------------------------------------------ *)

let run_paper_experiments () =
  print_endline "########################################################";
  print_endline "# Reproduction of the paper's evaluation              #";
  print_endline "########################################################";
  Harness.Table1.print (Harness.Table1.rows ());
  Harness.Fig8.print (Harness.Fig8.run ~quick ());
  Harness.Fig9.print Harness.Fig9.Micro (Harness.Fig9.run ~quick Harness.Fig9.Micro);
  Harness.Fig9.print Harness.Fig9.Tpcc (Harness.Fig9.run ~quick Harness.Fig9.Tpcc);
  Harness.Fig10.print_timeline
    (Harness.Fig10.run_timeline ~rows:(if quick then 20_000 else 50_000) ());
  Harness.Fig10.print_transfers (Harness.Fig10.run_transfers ~quick ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (real time, not simulated time)           *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

module Message = Loe.Message
module Cls = Loe.Cls

(* Ablation 1: the program optimizer (tree-walking interpreter vs fused
   machine with common-subexpression sharing). CLK is tiny, so the gain is
   modest there; on a wide specification (many composed classes over a
   shared base, like the Paxos node spec) the fused machine avoids
   rebuilding the whole instance tree per event. *)
let bench_gpm_backends =
  let h : int Message.hdr = Message.declare "bench" in
  let base = Cls.base h in
  (* A wide spec: 24 state classes over the same (shared) base class,
     paired through composition — CSE collapses the shared base. *)
  let wide =
    let cell i =
      Cls.state (Printf.sprintf "s%d" i)
        ~init:(fun _ -> i)
        ~upd:(fun _ v s -> s + v)
        base
    in
    let rec build i =
      if i = 0 then Cls.map (fun v -> v) base
      else Cls.( ||| ) (Cls.o2 (fun _ v s -> [ v + s ]) base (cell i)) (build (i - 1))
    in
    build 24
  in
  let msgs = Array.init 64 (fun i -> Message.make h i) in
  let tree () =
    let proc = ref (Gpm.Compile.compile 0 wide) in
    Array.iter
      (fun m ->
        let p, _ = Gpm.Proc.step !proc m in
        proc := p)
      msgs
  in
  let fused () =
    let machine = Gpm.Opt.compile 0 wide in
    Array.iter (fun m -> ignore (Gpm.Opt.step machine m)) msgs
  in
  Test.make_grouped ~name:"gpm(wide spec,64 events)"
    [
      Test.make ~name:"interpreted-tree" (Staged.stage tree);
      Test.make ~name:"optimized-fused" (Staged.stage fused);
    ]

(* Ablation 3: point operations across the three diverse backends. *)
let bench_backends =
  let mk kind () =
    let s = Storage.Store.create kind in
    for i = 0 to 999 do
      s.Storage.Store.insert
        [ Storage.Value.Int ((i * 7919) mod 1000) ]
        [| Storage.Value.Int i; Storage.Value.Int (i * 2) |]
    done;
    for i = 0 to 999 do
      ignore (s.Storage.Store.find [ Storage.Value.Int i ])
    done
  in
  Test.make_grouped ~name:"store(1k ins + 1k find)"
    [
      Test.make ~name:"hazel-hash" (Staged.stage (mk Storage.Store.Hazel));
      Test.make ~name:"hickory-btree" (Staged.stage (mk Storage.Store.Hickory));
      Test.make ~name:"dogwood-avl" (Staged.stage (mk Storage.Store.Dogwood));
    ]

let bench_sql =
  let sql =
    "SELECT a, b FROM t WHERE (a = 1) AND (b < 'x') ORDER BY a ASC LIMIT 5"
  in
  Test.make ~name:"sql-parse" (Staged.stage (fun () -> Storage.Sql_parser.parse sql))

let bench_codec =
  let txn =
    {
      Shadowdb.Txn.client = 3;
      seq = 42;
      kind = "deposit";
      params = [ Storage.Value.Int 17; Storage.Value.Int 100 ];
    }
  in
  let batch =
    List.init 64 (fun i ->
        {
          Broadcast.Tob.origin = i mod 5;
          id = i;
          payload = Shadowdb.Codec.encode_txn txn;
        })
  in
  let batch_bytes = Shadowdb.Codec.encode_batch batch in
  Test.make_grouped ~name:"codec"
    [
      Test.make ~name:"txn-codec-roundtrip"
        (Staged.stage (fun () ->
             Shadowdb.Codec.decode_txn (Shadowdb.Codec.encode_txn txn)));
      Test.make ~name:"batch-codec-roundtrip"
        (Staged.stage (fun () ->
             Shadowdb.Codec.decode_batch
               (Shadowdb.Codec.encode_batch batch)));
      Test.make ~name:"batch-decode"
        (Staged.stage (fun () -> Shadowdb.Codec.decode_batch batch_bytes));
    ]

let bench_paxos_step =
  Test.make ~name:"paxos-acceptor-step"
    (Staged.stage (fun () ->
         let a = Consensus.Acceptor.create ~self:1 in
         let b = { Consensus.Paxos_msg.round = 1; leader = 0 } in
         ignore (Consensus.Acceptor.step a (Consensus.Paxos_msg.P1a { src = 0; b }))))

let bench_btree_bulk =
  Test.make ~name:"btree-1k-inserts"
    (Staged.stage (fun () ->
         let t = ref (Storage.Btree.create ~cmp:Int.compare) in
         for i = 0 to 999 do
           t := Storage.Btree.insert !t ((i * 2654435761) land 0xFFFF) i
         done))

let run_micro () =
  print_endline "\n########################################################";
  print_endline "# Bechamel micro-benchmarks (ablations)               #";
  print_endline "########################################################";
  let tests =
    Test.make_grouped ~name:"micro"
      [
        bench_gpm_backends;
        bench_backends;
        bench_sql;
        bench_codec;
        bench_paxos_step;
        bench_btree_bulk;
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~stabilize:true ~quota:(Time.second 0.4) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    (* Numeric order, cheapest first; failed fits (no estimate) last. *)
    |> List.sort (fun (n1, v1) (n2, v2) ->
           match (Float.is_nan v1, Float.is_nan v2) with
           | true, true -> compare n1 n2
           | true, false -> 1
           | false, true -> -1
           | false, false ->
               let c = Float.compare v1 v2 in
               if c <> 0 then c else compare n1 n2)
  in
  Stats.Table.print_table ~title:"micro-benchmarks (monotonic clock)"
    ~header:[ "benchmark"; "ns/run" ]
    (List.map
       (fun (n, v) ->
         [ n; (if Float.is_nan v then "n/a" else Stats.Table.fmt_f v) ])
       rows);
  rows

let run_ablations () =
  print_endline "\n########################################################";
  print_endline "# Virtual-time ablations (DESIGN.md design choices)    #";
  print_endline "########################################################";
  let sections =
    [
      ("ablation — broadcast batching", Harness.Ablations.batching ());
      ( "ablation — consensus pipelining window",
        Harness.Ablations.pipelining () );
      ( "ablation — consensus module under the TOB",
        Harness.Ablations.consensus_modules () );
      ( "ablation — lock granularity under contention",
        Harness.Ablations.lock_granularity () );
      ( "extension — replication styles over the same substrate",
        Harness.Ablations.replication_styles () );
    ]
  in
  List.iter (fun (title, pts) -> Harness.Ablations.print ~title pts) sections;
  sections

(* ------------------------------------------------------------------ *)
(* Perf trajectory (--json): wall-clock throughput of the hot paths    *)
(* ------------------------------------------------------------------ *)

module Engine = Sim.Engine
module Sdb = Shadowdb.System.Make (Consensus.Paxos)

let bank_rows = 1_000

let make_deposit ~client ~seq =
  Workload.Bank.deposit
    ~account:(abs (Hashtbl.hash (client, seq)) mod bank_rows)
    ~amount:1

(* SMR bank cluster on the simulator: every transaction goes through the
   TOB, so committed/s (virtual) is the broadcast service's transaction
   throughput, and processed events over wall-clock time is the simulator
   engine's raw speed. *)
let measure_sim () =
  let world : Sdb.wire Engine.t = Engine.create ~seed:101 () in
  let rworld = Runtime.Of_sim.of_engine world in
  let commits = ref 0 in
  let last = ref 0.0 in
  let cluster =
    Sdb.spawn_smr ~world:rworld ~registry:Workload.Bank.registry
      ~setup:(Workload.Bank.setup ~rows:bank_rows)
      ~n_active:2 ()
  in
  let _, _ =
    Sdb.spawn_clients ~world:rworld ~target:(Sdb.To_smr cluster) ~n:8
      ~count:(if quick then 150 else 1_000)
      ~make_txn:make_deposit ~retry_timeout:4.0
      ~on_commit:(fun now _ ->
        incr commits;
        last := now)
      ()
  in
  let t0 = Unix.gettimeofday () in
  Engine.run ~until:3600.0 ~max_events:100_000_000 world;
  let wall = Unix.gettimeofday () -. t0 in
  let events = Engine.events_processed world in
  ( float_of_int events /. wall,
    if !last > 0.0 then float_of_int !commits /. !last else nan )

(* Sharded SMR on the simulator, weak scaling: 4 closed-loop clients and
   one 3-replica TOB group per shard, a Zipf-skewed (theta = 0.9) deposit
   stream with a 5% transfer mix whose cross-shard fraction rides through
   the 2PC coordinator. Virtual committed/s measures how much total
   transaction throughput the extra independent total orders buy. *)
let measure_sim_sharded ~shards () =
  let world : Sdb.wire Engine.t = Engine.create ~seed:(300 + shards) () in
  let rworld = Runtime.Of_sim.of_engine world in
  let zipf = Workload.Zipf.create ~n:bank_rows ~theta:0.9 in
  let commits = ref 0 in
  let last = ref 0.0 in
  let cluster =
    Sdb.spawn_sharded ~world:rworld ~registry:Workload.Bank.registry
      ~setup:(fun s db ->
        Workload.Bank.setup_shard ~rows:bank_rows ~shards s db)
      ~router:(Workload.Bank.router ~shards)
      ()
  in
  let make_txn ~client ~seq =
    if seq mod 20 = 19 then
      let src = Workload.Zipf.sample_id zipf ~client ~seq in
      let dst =
        (src + 1 + (abs (Hashtbl.hash (client, seq, 1)) mod (bank_rows - 1)))
        mod bank_rows
      in
      Workload.Bank.transfer ~src ~dst ~amount:1
    else
      Workload.Bank.deposit
        ~account:(Workload.Zipf.sample_id zipf ~client ~seq)
        ~amount:1
  in
  let n_clients = 4 * shards and count = if quick then 100 else 400 in
  let _, _ =
    Sdb.spawn_clients ~world:rworld ~target:(Sdb.To_sharded cluster)
      ~n:n_clients ~count ~make_txn ~retry_timeout:4.0
      ~on_commit:(fun now _ ->
        incr commits;
        last := now)
      ()
  in
  Engine.run ~until:3600.0 ~max_events:100_000_000 world;
  let txns_s = if !last > 0.0 then float_of_int !commits /. !last else nan in
  (txns_s, cluster.Sdb.sh_committed (), cluster.Sdb.sh_aborted ())

let sharding_curve () =
  let counts = [ 1; 2; 4 ] in
  let pts =
    List.map
      (fun shards ->
        let txns_s, x_committed, x_aborted = measure_sim_sharded ~shards () in
        (shards, txns_s, x_committed, x_aborted))
      counts
  in
  let base =
    match pts with (_, t, _, _) :: _ -> t | [] -> nan
  in
  List.map
    (fun (shards, t, xc, xa) -> (shards, t, t /. base, xc, xa))
    pts

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Run [f dir] with a fresh scratch directory for one durability
   measurement. [mkdir] fails on an existing directory, so an earlier
   run's data is never reused; the directory is removed afterwards. *)
let with_dur_dir =
  let n = ref 0 in
  fun name f ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "shadowdb-bench-dur-%d-%d-%s" (Unix.getpid ()) !n name)
    in
    Unix.mkdir dir 0o755;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* One timed deployment of the same cluster as a real socket deployment
   over loopback TCP on the event-loop runtime: committed transactions
   per wall-clock second plus p50/p99 commit latency. [Some d]
   additionally journals every applied batch through [d] (see
   {!file_durability}). The clock runs from [start] to client
   completion; the GC is quiesced first so a major slice from earlier
   phases doesn't land inside a single-digit-millisecond window. *)
let measure_socket_once durability =
  let codec =
    Sdb.wire_codec ~enc_core:Shadowdb.Codec.encode_core_paxos
      ~dec_core:Shadowdb.Codec.decode_core_paxos
  in
  let rt = Runtime.Loop.create ~codec () in
  let world = Runtime.Loop.runtime rt in
  let mu = Mutex.create () in
  let commits = ref 0 in
  let latencies = Stats.Sample.create () in
  let cluster =
    Sdb.spawn_smr ~world ?durability ~registry:Workload.Bank.registry
      ~setup:(Workload.Bank.setup ~rows:bank_rows)
      ~n_active:2 ()
  in
  let n_clients = 4 and count = if quick then 50 else 250 in
  let _, completed =
    Sdb.spawn_clients ~world ~target:(Sdb.To_smr cluster) ~n:n_clients ~count
      ~make_txn:make_deposit ~retry_timeout:4.0
      ~on_commit:(fun _ l ->
        Mutex.lock mu;
        incr commits;
        Stats.Sample.add latencies l;
        Mutex.unlock mu)
      ()
  in
  (* Compact, not just a major cycle: by this point earlier bench phases
     have grown and fragmented the major heap, and the timed window is
     single-digit milliseconds. *)
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  Runtime.Loop.start rt;
  let finished =
    Runtime.Loop.await ~timeout:120.0 rt (fun () -> completed () >= n_clients)
  in
  let wall = Unix.gettimeofday () -. t0 in
  Runtime.Loop.stop rt;
  let txns =
    if (not finished) || wall <= 0.0 then nan
    else float_of_int !commits /. wall
  in
  ( txns,
    Stats.Sample.percentile latencies 50.0 *. 1e3,
    Stats.Sample.percentile latencies 99.0 *. 1e3 )

(* Best of five trials. The quick run finishes in milliseconds, so a
   stolen timeslice on a small machine easily halves one trial's figure;
   the max over a handful of trials is a far better estimate of what the
   runtime sustains, at negligible cost. *)
let measure_socket () =
  let best = ref (measure_socket_once None) in
  for _ = 2 to 5 do
    let ((t, _, _) as m) = measure_socket_once None in
    let bt, _, _ = !best in
    if (not (Float.is_nan t)) && (Float.is_nan bt || t > bt) then best := m
  done;
  !best

(* File-WAL durability for every node under [base], syncing after [gc]
   records — 1 is fsync-per-commit, larger windows are group commit. *)
let file_durability ~gc base =
  {
    Sdb.dur_backend =
      (fun i ->
        Durable.File.create
          ~dir:(Filename.concat base (Printf.sprintf "node%d" i))
          ());
    dur_policy =
      (fun _ ->
        { Durable.Manager.group_commit = gc; snapshot_every = 0; replay_tail = true });
    dur_on_recover = (fun _ _ ~state_hash:_ -> ());
  }

(* Durable socket throughput: a single trial in a fresh WAL directory
   (trials sharing one would replay each other's logs). *)
let measure_durable ~gc () =
  with_dur_dir (Printf.sprintf "gc%d" gc) (fun base ->
      let t, _, _ = measure_socket_once (Some (file_durability ~gc base)) in
      t)

(* ns per frame through the shared wire framing: append one encoded frame
   into a reused buffer and parse it back out — the per-message data-
   plane work the socket runtime does besides the syscall. *)
let measure_frame_ns () =
  let payload = String.make 200 'p' in
  let buf = Runtime.Frame.create 65536 in
  let n = if quick then 300_000 else 3_000_000 in
  let sink = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    Runtime.Frame.append buf ~src:1 ~payload;
    Runtime.Frame.drain buf
      ~frame:(fun ~src:_ p -> sink := !sink + String.length p)
      ~bad:(fun _ -> ())
  done;
  let wall = Unix.gettimeofday () -. t0 in
  if !sink = 0 then nan else wall /. float_of_int n *. 1e9

(* Raw WAL append bandwidth of the file backend (256-byte payloads,
   synced every 64 records). *)
let measure_wal_append () =
  with_dur_dir "wal" @@ fun dir ->
  let b = Durable.File.create ~dir () in
  let payload = String.make 256 'w' in
  let n = if quick then 2_000 else 20_000 in
  let bytes = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    let e =
      Durable.Wal.encode_record
        { Durable.Wal.idx = i; aux = i; hash = i land 0xFFFF; payload }
    in
    bytes := !bytes + String.length e;
    b.Durable.Backend.log_append e;
    if i mod 64 = 63 then b.Durable.Backend.log_sync ()
  done;
  b.Durable.Backend.log_sync ();
  let wall = Unix.gettimeofday () -. t0 in
  b.Durable.Backend.close ();
  float_of_int !bytes /. wall /. (1024.0 *. 1024.0)

(* Recovery speed: journal bank deposits through the file backend, then
   time a full log replay into a fresh replica. Reported normalized as
   milliseconds per 10k records. *)
let measure_recovery () =
  let n = if quick then 2_000 else 10_000 in
  with_dur_dir "recover" @@ fun dir ->
  let policy =
    { Durable.Manager.group_commit = 256; snapshot_every = 0; replay_tail = true }
  in
  let reg = Workload.Bank.registry () in
  let fresh_db () =
    let db = Storage.Database.create Storage.Store.Hazel in
    Workload.Bank.setup ~rows:bank_rows db;
    db
  in
  let deposit i =
    let kind, params = make_deposit ~client:0 ~seq:i in
    { Shadowdb.Txn.client = 0; seq = i; kind; params }
  in
  let b = Durable.File.create ~dir () in
  let db = fresh_db () in
  let mgr, _ =
    Durable.Manager.recover b policy ~install:(fun _ -> ()) ~apply:(fun _ -> ())
  in
  for i = 0 to n - 1 do
    let txn = deposit i in
    ignore (Shadowdb.Txn.execute reg db txn);
    Durable.Manager.append mgr
      {
        Durable.Wal.idx = i;
        aux = i + 1;
        hash = 0;
        payload = Shadowdb.Codec.encode_txn txn;
      }
  done;
  Durable.Manager.flush mgr;
  b.Durable.Backend.close ();
  let b2 = Durable.File.create ~dir () in
  let db2 = fresh_db () in
  let apply (r : Durable.Wal.record) =
    match Shadowdb.Codec.decode_txn r.Durable.Wal.payload with
    | Ok txn -> ignore (Shadowdb.Txn.execute reg db2 txn)
    | Error _ -> ()
  in
  let t0 = Unix.gettimeofday () in
  let _, rep = Durable.Manager.recover b2 policy ~install:(fun _ -> ()) ~apply in
  let wall = Unix.gettimeofday () -. t0 in
  b2.Durable.Backend.close ();
  if rep.Durable.Manager.recovered_idx <> n - 1 then nan
  else wall *. 1000.0 /. float_of_int n *. 10_000.0

(* Model-checker schedule throughput on the two hot scenarios. *)
let measure_check () =
  let budget = if quick then 300 else 2_000 in
  List.map
    (fun (name, sc) ->
      let t0 = Unix.gettimeofday () in
      let r = Check.Explore.random_walk sc ~seed:7 ~budget () in
      let wall = Unix.gettimeofday () -. t0 in
      ignore r.Check.Explore.violation;
      (name, float_of_int budget /. wall))
    [ ("paxos", Check.Scenarios.paxos); ("tob", Check.Scenarios.tob) ]

(* Conformance-checker throughput: a recorded sim bank trace pushed
   through the LoE replay + invariant monitors (events/s) and through
   the trace codec (encode + decode, MB/s). *)
let measure_conform () =
  let clients, count = if quick then (2, 20) else (3, 60) in
  let run = Conform.Record.sim_bank ~seed:7 ~clients ~count ~rows:512 () in
  let events = Conform.Recorder.events run.Conform.Record.recorder in
  let meta = Conform.Recorder.meta run.Conform.Record.recorder in
  let n = List.length events in
  let spec_exec = Conform.Replay.spec_exec_of_meta meta in
  let t0 = Unix.gettimeofday () in
  let replay = Conform.Replay.check ?spec_exec events in
  let monitors = Conform.Monitors.check ~meta events in
  let check_wall = Unix.gettimeofday () -. t0 in
  let events_s =
    if Conform.Replay.ok replay && Conform.Monitors.ok monitors then
      float_of_int n /. check_wall
    else nan
  in
  let t1 = Unix.gettimeofday () in
  let enc = Conform.Trace_file.encode ~meta events in
  let roundtrip_ok =
    match Conform.Trace_file.decode enc with Ok _ -> true | Error _ -> false
  in
  let codec_wall = Unix.gettimeofday () -. t1 in
  let mb = float_of_int (String.length enc) /. (1024.0 *. 1024.0) in
  let codec_mb_s = if roundtrip_ok then 2.0 *. mb /. codec_wall else nan in
  (events_s, codec_mb_s)

let run_trajectory () =
  print_endline "\n########################################################";
  print_endline "# Perf trajectory (wall-clock hot-path throughput)     #";
  print_endline "########################################################";
  let events_per_sec, sim_txns = measure_sim () in
  let shard_pts = sharding_curve () in
  let loop_txns, loop_p50, loop_p99 = measure_socket () in
  let frame_ns = measure_frame_ns () in
  let check_rates = measure_check () in
  let wal_mb_s = measure_wal_append () in
  let loop_fsync = measure_durable ~gc:1 () in
  let loop_group = measure_durable ~gc:8 () in
  let recovery_ms = measure_recovery () in
  let conform_events_s, conform_codec_mb_s = measure_conform () in
  Stats.Table.print_table ~title:"perf trajectory"
    ~header:[ "measure"; "value" ]
    ([
       [ "sim engine events/s (wall)"; Stats.Table.fmt_f events_per_sec ];
       [ "tob txns/s (sim, virtual)"; Stats.Table.fmt_f sim_txns ];
       [
         "tob txns/s (loop, wall)";
         Printf.sprintf "%s (p50 %.2f ms, p99 %.2f ms)"
           (Stats.Table.fmt_f loop_txns) loop_p50 loop_p99;
       ];
       [ "frame ns/frame (append+drain)"; Stats.Table.fmt_f frame_ns ];
       [ "wal append MB/s (file)"; Stats.Table.fmt_f wal_mb_s ];
       [ "tob txns/s (loop, fsync/commit)"; Stats.Table.fmt_f loop_fsync ];
       [ "tob txns/s (loop, group commit 8)"; Stats.Table.fmt_f loop_group ];
       [ "recovery ms / 10k records"; Stats.Table.fmt_f recovery_ms ];
       [ "conform check events/s"; Stats.Table.fmt_f conform_events_s ];
       [ "conform trace codec MB/s"; Stats.Table.fmt_f conform_codec_mb_s ];
     ]
    @ List.map
        (fun (shards, t, speedup, xc, xa) ->
          [
            Printf.sprintf "sharded txns/s (sim, %d shard%s)" shards
              (if shards = 1 then "" else "s");
            Printf.sprintf "%s (%.2fx, 2pc %d/%d)" (Stats.Table.fmt_f t)
              speedup xc (xc + xa);
          ])
        shard_pts
    @ List.map
        (fun (n, v) ->
          [ Printf.sprintf "check %s schedules/s" n; Stats.Table.fmt_f v ])
        check_rates);
  ( events_per_sec,
    sim_txns,
    shard_pts,
    (loop_txns, loop_p50, loop_p99),
    frame_ns,
    check_rates,
    (wal_mb_s, loop_fsync, loop_group, recovery_ms),
    (conform_events_s, conform_codec_mb_s) )

let () =
  run_paper_experiments ();
  let ablations = run_ablations () in
  let micro = if skip_micro then [] else run_micro () in
  (match json_file with
  | None -> ()
  | Some file ->
      let ( events_per_sec,
            sim_txns,
            shard_pts,
            (loop_txns, loop_p50, loop_p99),
            frame_ns,
            check_rates,
            (wal_mb_s, loop_fsync, loop_group, recovery_ms),
            (conform_events_s, conform_codec_mb_s) ) =
        run_trajectory ()
      in
      let json =
        Json.Obj
          [
            ("suite", Json.Str "shadowdb-bench");
            ("scale", Json.Str (if quick then "quick" else "full"));
            ( "micro_ns_per_run",
              Json.Arr
                (List.map
                   (fun (name, ns) ->
                     Json.Obj
                       [ ("name", Json.Str name); ("ns", Json.num ns) ])
                   micro) );
            ( "sim",
              Json.Obj
                [
                  ("engine_events_per_sec", Json.num events_per_sec);
                  ("tob_txns_per_sec", Json.num sim_txns);
                ] );
            ( "sharding",
              Json.Arr
                (List.map
                   (fun (shards, t, speedup, xc, xa) ->
                     Json.Obj
                       [
                         ("shards", Json.num (float_of_int shards));
                         ("tob_txns_per_sec", Json.num t);
                         ("speedup_vs_1_shard", Json.num speedup);
                         ("cross_shard_committed", Json.num (float_of_int xc));
                         ("cross_shard_aborted", Json.num (float_of_int xa));
                       ])
                   shard_pts) );
            ( "live_loop",
              Json.Obj
                [
                  ("tob_txns_per_sec", Json.num loop_txns);
                  ("latency_p50_ms", Json.num loop_p50);
                  ("latency_p99_ms", Json.num loop_p99);
                ] );
            ("frame", Json.Obj [ ("ns_per_frame", Json.num frame_ns) ]);
            ( "check_schedules_per_sec",
              Json.Obj (List.map (fun (n, v) -> (n, Json.num v)) check_rates)
            );
            ( "durability",
              Json.Obj
                [
                  ("wal_append_mb_per_sec", Json.num wal_mb_s);
                  ("live_txns_per_sec_fsync_per_commit", Json.num loop_fsync);
                  ("live_txns_per_sec_group_commit_8", Json.num loop_group);
                  ("recovery_ms_per_10k_records", Json.num recovery_ms);
                ] );
            ( "conform",
              Json.Obj
                [
                  ("check_events_per_sec", Json.num conform_events_s);
                  ("trace_codec_mb_per_sec", Json.num conform_codec_mb_s);
                ] );
            ( "ablations",
              Json.Obj
                (List.map
                   (fun (title, pts) ->
                     ( title,
                       Json.Arr
                         (List.map
                            (fun p ->
                              Json.Obj
                                [
                                  ("label", Json.Str p.Harness.Ablations.label);
                                  ( "throughput_per_sec",
                                    Json.num p.Harness.Ablations.throughput );
                                  ( "latency_ms",
                                    Json.num p.Harness.Ablations.latency_ms );
                                ])
                            pts) ))
                   ablations) );
          ]
      in
      Json.to_file file json;
      Printf.printf "\nbench: wrote %s\n" file);
  print_endline "\nbench: done."
