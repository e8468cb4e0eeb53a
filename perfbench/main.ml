(* The repository benchmark.

     main.exe --workload smr_mem|smr_wal|check_explore --seed N
              --seconds S --trace 0|1

   Runs rounds of the workload for [S] seconds, checks every round's
   outputs, prints a human-readable summary and, as the last line of
   stdout, one JSON object: [correct], [attempted], [failed] and
   [metrics]. With [--trace 0] the metrics are the end-to-end ones,
   measured untraced; with [--trace 1] an untraced pass is followed by a
   traced pass of the same length, and the metrics are the per-layer
   ones. METHOD.md explains the workloads and metrics. Exits 1 when a
   check fails, 2 on bad arguments. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload smr_mem|smr_wal|check_explore --seed N \
     --seconds S --trace 0|1";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  part : int option;  (* set in the child processes of a pass *)
}

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and part = ref None in
  let rec go = function
    | "--part" :: i :: rest ->
        part := int_of_string_opt i;
        go rest
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: n :: rest ->
        seed := int_of_string_opt n;
        go rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string_opt s;
        go rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0.0 ->
      { workload = !workload; seed; seconds; trace; part = !part }
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Workload parameters                                                 *)
(* ------------------------------------------------------------------ *)

(* Both socket workloads: 16 closed-loop clients and a fixed
   committed-txn count per round (per client: [mem_count] in memory,
   [wal_count] with the WAL), so every round carries the same protocol
   history. A run pools the latency samples of all its rounds. *)
let clients = 16
let mem_count = 2_000
let wal_count = 64

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Layer time accumulated over the rounds of a traced pass. *)
type layer_acc = { self : int array; calls : int array; mutable top : int }

let layer_acc () =
  { self = Array.make Probe.n_layers 0; calls = Array.make Probe.n_layers 0;
    top = 0 }

let absorb_probe acc =
  Array.iteri (fun i v -> acc.self.(i) <- acc.self.(i) + v) Probe.self_ns;
  Array.iteri (fun i v -> acc.calls.(i) <- acc.calls.(i) + v) Probe.calls;
  acc.top <- acc.top + !Probe.top_ns

let self_s acc l = float_of_int acc.self.(Probe.index l) *. 1e-9
let calls_of acc l = acc.calls.(Probe.index l)

(* One pass: rounds of the workload for [seconds]. A pass runs in child
   processes (see [run_pass]), so everything here is plain data that can
   be marshalled back and merged. *)
type pass = {
  mutable tputs : float list;  (* per round, for the summary *)
  mutable setups : float list;  (* per round *)
  lat : Hist.t;  (* every latency sample of the pass, seconds *)
  mutable busy : float;  (* the rounds' measured windows, summed *)
  mutable attempted : int;
  mutable commits : int;
  mutable retries : int;
  mutable fails : string list;
  mutable wall : float;  (* traced accounting window, summed *)
  layers : layer_acc;
  mutable heap_peaks : int list;
      (* per process: top heap words after its first measured round *)
  (* smr rounds *)
  mutable msgs : int;
  mutable bytes : int;
  mutable writes : int;
  mutable backpressure : int;
  mutable peak_outbox : int;
  mutable minor_words : float;
  mutable major_collections : int;
  mutable retained_words : int;
  mutable marks : Smr.marks;
  (* check rounds *)
  mutable events : int;
}

let new_pass () =
  {
    tputs = []; setups = []; lat = Hist.create (); busy = 0.0;
    attempted = 0; commits = 0; retries = 0; fails = []; wall = 0.0;
    layers = layer_acc (); heap_peaks = []; msgs = 0; bytes = 0;
    writes = 0; backpressure = 0; peak_outbox = 0; minor_words = 0.0;
    major_collections = 0; retained_words = 0; marks = Smr.marks ();
    events = 0;
  }

(* Fold [q] into [p]. *)
let merge p q =
  p.tputs <- p.tputs @ q.tputs;
  p.setups <- p.setups @ q.setups;
  Hist.merge_into ~dst:p.lat q.lat;
  p.busy <- p.busy +. q.busy;
  p.attempted <- p.attempted + q.attempted;
  p.commits <- p.commits + q.commits;
  p.retries <- p.retries + q.retries;
  p.fails <- p.fails @ q.fails;
  p.wall <- p.wall +. q.wall;
  Array.iteri (fun i v -> p.layers.self.(i) <- p.layers.self.(i) + v) q.layers.self;
  Array.iteri (fun i v -> p.layers.calls.(i) <- p.layers.calls.(i) + v) q.layers.calls;
  p.layers.top <- p.layers.top + q.layers.top;
  p.heap_peaks <- p.heap_peaks @ q.heap_peaks;
  p.msgs <- p.msgs + q.msgs;
  p.bytes <- p.bytes + q.bytes;
  p.writes <- p.writes + q.writes;
  p.backpressure <- p.backpressure + q.backpressure;
  p.peak_outbox <- max p.peak_outbox q.peak_outbox;
  p.minor_words <- p.minor_words +. q.minor_words;
  p.major_collections <- p.major_collections + q.major_collections;
  p.retained_words <- p.retained_words + q.retained_words;
  p.marks <- Smr.merge_marks p.marks q.marks;
  p.events <- p.events + q.events

let absorb_smr p ~round (r : Smr.round) =
  p.setups <- r.setup :: p.setups;
  p.tputs <- (float_of_int r.commits /. r.commit_window) :: p.tputs;
  Hist.merge_into ~dst:p.lat r.lat;
  p.busy <- p.busy +. r.commit_window;
  p.attempted <- p.attempted + r.attempted;
  p.commits <- p.commits + r.commits;
  p.retries <- p.retries + r.retries;
  p.fails <-
    p.fails @ List.map (Printf.sprintf "round %d: %s" round) r.fails;
  p.wall <- p.wall +. r.wall;
  absorb_probe p.layers;
  let s = r.stats in
  p.msgs <- p.msgs + s.Runtime.Loop.s_sent_msgs;
  p.bytes <- p.bytes + s.s_sent_bytes;
  p.writes <- p.writes + s.s_flush_writes;
  p.backpressure <- p.backpressure + s.s_backpressure;
  p.peak_outbox <- max p.peak_outbox r.peak_outbox;
  let g0, g1 = r.gc in
  p.minor_words <- p.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  p.major_collections <-
    p.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
  p.retained_words <- p.retained_words + r.retained_words

(* One process's share of a pass: rounds numbered from [first_round],
   at least one, and another only while it is expected to end within
   [seconds]. *)
let run_part ~workload ~traced ~seed ~seconds ~first_round =
  let p = new_pass () in
  (* Unmeasured warm-up: a process's first cluster or walk pays for lazy
     initialisation (code and heap pages, the first reactor thread) that
     no later round repeats. *)
  (match workload with
  | "check_explore" -> Checkload.warm_up ~seed
  | _ ->
      ignore
        (Smr.closed_round ~traced ~seed ~round:(-1) ~clients ~count:50 ()));
  Probe.reset ();
  Smr.reset_marks ();
  let t_start = Probe.now_s () in
  let rounds body =
    let round = ref first_round and last = ref 0.0 in
    while
      !round = first_round || Probe.now_s () -. t_start +. !last <= seconds
    do
      let t0 = Probe.now_s () in
      body !round;
      last := Probe.now_s () -. t0;
      (* [top_heap_words] is the process's high-water mark, so it grows
         with the number of rounds run; after the first round it measures
         a fixed amount of work. *)
      if !round = first_round then
        p.heap_peaks <- [ (Gc.quick_stat ()).Gc.top_heap_words ];
      incr round
    done
  in
  (match workload with
  | "smr_mem" ->
      rounds (fun round ->
          absorb_smr p ~round
            (Smr.closed_round ~traced ~seed ~round ~clients ~count:mem_count
               ()))
  | "smr_wal" ->
      Scratch.with_dir (fun dir ->
          rounds (fun round ->
              let rdir = Filename.concat dir (Printf.sprintf "round%d" round) in
              Unix.mkdir rdir 0o755;
              let r =
                Smr.closed_round ~wal:rdir ~traced ~seed ~round ~clients
                  ~count:wal_count ()
              in
              Scratch.rm_rf rdir;
              absorb_smr p ~round r))
  | "check_explore" ->
      rounds (fun round ->
          let r = Checkload.run_round ~traced ~seed ~round in
          p.setups <- r.Checkload.setup :: p.setups;
          Hist.merge_into ~dst:p.lat r.lat;
          p.busy <- p.busy +. r.wall;
          p.tputs <- (float_of_int r.schedules /. r.wall) :: p.tputs;
          p.attempted <- p.attempted + Checkload.budget_per_round;
          p.commits <- p.commits + r.schedules;
          p.fails <-
            p.fails @ List.map (Printf.sprintf "round %d: %s" round) r.fails;
          p.wall <- p.wall +. r.wall;
          p.events <- p.events + r.events;
          absorb_probe p.layers)
  | _ -> usage ());
  p.marks <- Smr.marks ();
  p

(* A pass is split over [parts] fresh processes run one after another.
   Memory layout differs from process to process (address-space
   randomisation), and on this workload it moves throughput by more than
   round-to-round noise does; pooling several processes per run averages
   over layouts instead of measuring one. *)
let parts = 10

let run_pass ~workload ~traced ~seed ~seconds =
  let p = new_pass () in
  for i = 0 to parts - 1 do
    let args =
      [| Sys.executable_name; "--part"; string_of_int i; "--workload"; workload;
         "--seed"; string_of_int seed;
         "--seconds"; Printf.sprintf "%.17g" (seconds /. float_of_int parts);
         "--trace"; (if traced then "1" else "0") |]
    in
    let r, w = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process Sys.executable_name args Unix.stdin w Unix.stderr in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let got =
      try Some (Marshal.from_channel ic : pass)
      with End_of_file | Failure _ -> None
    in
    close_in ic;
    match (got, Unix.waitpid [] pid) with
    | Some q, (_, Unix.WEXITED 0) -> merge p q
    | _ -> p.fails <- p.fails @ [ Printf.sprintf "part %d: process failed" i ]
  done;
  p

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let ms v = v *. 1e3

(* Commits (or schedules) over the summed windows of the rounds. *)
let throughput p = float_of_int p.commits /. p.busy

(* Attempts that did not go through cleanly: resubmissions plus
   transactions (or schedules) never committed (or run). *)
let failed p = p.retries + (p.attempted - p.commits)

let end_to_end p =
  let heap =
    median (List.map float_of_int p.heap_peaks)
    *. float_of_int (Sys.word_size / 8) /. 1048576.0
  in
  [
    ("throughput_per_s", "1/s", throughput p);
    ("latency_p50_ms", "ms", ms (Hist.percentile p.lat 50.0));
    ("latency_p99_ms", "ms", ms (Hist.percentile p.lat 99.0));
    ("heap_peak_mb", "MB", heap);
    ("setup_s", "s", median p.setups);
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* Per-layer metrics of a traced pass [t], with the untraced pass [u] of
   the same workload for the tracing overhead. *)
let per_layer ~workload ~(u : pass) (t : pass) =
  let acc = t.layers and m = t.marks in
  let wall = t.wall in
  let share ls = ratio (List.fold_left (fun a l -> a +. self_s acc l) 0.0 ls) wall in
  let commits = float_of_int t.commits in
  let per_commit v = ratio v commits in
  let smr = workload <> "check_explore" in
  let if_smr v = if smr then v else 0.0 in
  let if_check v = if smr then 0.0 else v in
  let per_call l scale = ratio (self_s acc l *. scale) (float_of_int (calls_of acc l)) in
  [
    ("runtime.msgs_per_commit", "count", if_smr (per_commit (float_of_int t.msgs)));
    ("runtime.bytes_per_commit", "B", if_smr (per_commit (float_of_int t.bytes)));
    ("runtime.frames_per_write", "count", if_smr (iratio t.msgs t.writes));
    ("runtime.backpressure_events", "count", float_of_int t.backpressure);
    ("runtime.peak_outbox_bytes", "B", float_of_int t.peak_outbox);
    ( "runtime.unexplained_share", "frac",
      ratio (wall -. (float_of_int acc.top *. 1e-9)) wall );
    ("codec.enc_ns_per_msg", "ns", per_call Probe.Enc 1e9);
    ("codec.dec_ns_per_msg", "ns", per_call Probe.Dec 1e9);
    ("codec.share", "frac", share [ Probe.Enc; Probe.Dec ]);
    ("smr.self_us_per_commit", "us", if_smr (per_commit (self_s acc Probe.Smr *. 1e6)));
    ("smr.share", "frac", share [ Probe.Smr ]);
    ("smr.apply_ms_p50", "ms", if_smr (ms (Hist.percentile m.m_apply_lat 50.0)));
    ("consensus.msgs_per_slot", "count", iratio m.m_core_msgs m.m_slots);
    ("tob.entries_per_batch", "count", iratio m.m_batch_entries m.m_slots);
    ("tob.order_ms_p50", "ms", if_smr (ms (Hist.percentile m.m_order_lat 50.0)));
    ("storage.exec_us_per_txn", "us", per_call Probe.Storage 1e6);
    ("storage.share", "frac", share [ Probe.Storage ]);
    ( "durable.syncs_per_commit", "count",
      if_smr (per_commit (float_of_int (calls_of acc Probe.Wal_sync))) );
    ( "durable.append_bytes_per_commit", "B",
      if_smr (per_commit (float_of_int m.m_append_bytes)) );
    ("durable.sync_ms_p50", "ms", ms (Hist.percentile m.m_sync_lat 50.0));
    ("durable.sync_ms_p99", "ms", ms (Hist.percentile m.m_sync_lat 99.0));
    ("durable.sync_share", "frac", share [ Probe.Wal_sync ]);
    ("durable.share", "frac", share [ Probe.Wal_append; Probe.Wal_sync ]);
    ("client.share", "frac", share [ Probe.Client ]);
    ("client.retries", "count", float_of_int t.retries);
    ("gc.minor_words_per_commit", "words", if_smr (per_commit t.minor_words));
    ("gc.major_collections", "count", float_of_int t.major_collections);
    ( "gc.heap_words_per_commit", "words",
      if_smr (per_commit (float_of_int t.retained_words)) );
    ("check.make_share", "frac", share [ Probe.Make ]);
    ("check.step_share", "frac", share [ Probe.Step ]);
    ("check.fingerprint_share", "frac", share [ Probe.Fingerprint ]);
    ("check.monitor_share", "frac", share [ Probe.Monitor ]);
    ("sim.ns_per_event", "ns", if_check (ratio (self_s acc Probe.Step *. 1e9) (float_of_int t.events)));
    ("sim.events_per_schedule", "count", if_check (iratio t.events t.commits));
    ( "trace.overhead_frac", "frac",
      1.0 -. ratio (throughput t) (throughput u) );
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

let summary ~workload ~label p =
  let what = if workload = "check_explore" then "schedules" else "txns" in
  Printf.printf
    "%s %s: %d rounds, %d/%d %s, %d failed; throughput/s per round: %s\n"
    workload label (List.length p.tputs) p.commits p.attempted what (failed p)
    (String.concat " "
       (List.rev_map (Printf.sprintf "%.0f") p.tputs));
  Printf.printf "  %.1f %s/s over the run; latency samples %d, p50 %.4f ms, p99 %.4f ms\n"
    (throughput p) what (Hist.count p.lat)
    (ms (Hist.percentile p.lat 50.0))
    (ms (Hist.percentile p.lat 99.0));
  List.iter (Printf.printf "  FAILED CHECK %s\n") p.fails

let () =
  let a = parse_args () in
  if not (List.mem a.workload [ "smr_mem"; "smr_wal"; "check_explore" ]) then
    usage ();
  match a.part with
  | Some i ->
      let p =
        run_part ~workload:a.workload ~traced:a.trace ~seed:a.seed
          ~seconds:a.seconds ~first_round:(i * 10_000)
      in
      Marshal.to_channel stdout p [];
      flush stdout
  | None ->
      let u =
        run_pass ~workload:a.workload ~traced:false ~seed:a.seed
          ~seconds:a.seconds
      in
      summary ~workload:a.workload ~label:"untraced" u;
      let passes, metrics =
        if not a.trace then ([ u ], end_to_end u)
        else begin
          let t =
            run_pass ~workload:a.workload ~traced:true ~seed:a.seed
              ~seconds:a.seconds
          in
          summary ~workload:a.workload ~label:"traced" t;
          ([ u; t ], per_layer ~workload:a.workload ~u t)
        end
      in
      let bad_metrics =
        if a.trace then []
        else
          List.filter_map
            (fun (n, _, v) ->
              if Float.is_finite v && v > 0.0 then None
              else Some (Printf.sprintf "metric %s is %g" n v))
            metrics
      in
      List.iter (Printf.printf "  FAILED CHECK %s\n") bad_metrics;
      let fails = List.concat_map (fun p -> p.fails) passes @ bad_metrics in
      let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
      print_result ~correct:(fails = [])
        ~attempted:(sum (fun p -> p.attempted))
        ~failed:(sum failed) metrics;
      if fails <> [] then exit 1
