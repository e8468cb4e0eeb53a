(* Implementation-lint orchestration: the Registry-equivalent for the
   impl passes. Spec targets (registry.ml) close over in-memory class
   terms; impl targets close over parsed source trees, so they are built
   per-invocation from the `--src` directories and each target is only
   emitted when its subject module is present (running `shadowdb_lint
   impl --src lib/durable` should not fail because the Loop sources are
   out of scope). Within a present module, a renamed entry point is a
   [missing-entry] finding, not a silent skip. *)

(* The with-lock helpers the call graph tags critical sections for. *)
let lock_helpers =
  [
    "Runtime.Loop.locked";
    "Conform.Online.locked";
    "Conform.Recorder.locked";
    "Shadowdb.System.Make.Registry.locked";
  ]

(* Reactor-blocking config for the Loop runtime. Each blessing names the
   one reason the call cannot stall the reactor (see DESIGN.md). *)
let loop_blocking : Impl_blocking.config =
  {
    entries = [ "Runtime.Loop.reactor_entry" ];
    blessed =
      [
        ( "Runtime.Loop.reactor",
          "Unix.select",
          "the reactor's single multiplexing wait; timeout comes from \
           the timer wheel" );
        ( "Runtime.Loop.reactor_entry",
          "Condition.wait",
          "pre-start parking; the lock is released while waiting" );
        ( "Runtime.Loop.mux_for",
          "Unix.connect",
          "one-time lazy loopback connect when a destination mux is \
           first created" );
        ( "Runtime.Loop.drain_wake",
          "Unix.read",
          "wake pipe is non-blocking; EAGAIN handled" );
        ( "Runtime.Loop.accept_conns",
          "Unix.accept",
          "listener sockets are non-blocking; EAGAIN handled" );
        ( "Runtime.Outbox.flush",
          "Unix.write",
          "sink sockets are non-blocking; EAGAIN yields `Partial`" );
        ( "Runtime.Frame.read_into",
          "Unix.read",
          "connection fds are non-blocking; EAGAIN yields `Data 0`" );
      ];
  }

let runtime_locks : Impl_locks.config =
  {
    helpers = lock_helpers;
    dispatchers =
      [ "Runtime.Loop.dispatch"; "Runtime.Loop.deliver" ];
  }

let durable_ordering : Impl_durable.config =
  {
    file_module = "Durable.File";
    append_callers = [ "Durable.Manager.append" ];
    sync_field = "log_sync";
    require_wal = true;
  }

(* Run every applicable impl pass over the sources under [src_dirs].
   Returns Lint.report-shaped data; the sweep rides along so CI has one
   source-analysis gate. *)
let run ~src_dirs () =
  let sources, load_diags = Ast_load.load src_dirs in
  let g = Callgraph.build ~lock_helpers sources in
  let sweep =
    {
      Lint.target = "sources";
      kind = "sweep";
      findings = load_diags @ List.concat_map Sweep.scan_source sources;
    }
  in
  let reports = ref [ sweep ] in
  let add target kind findings =
    reports := { Lint.target; kind; findings } :: !reports
  in
  if Callgraph.module_present g "Runtime.Loop" then
    add "loop-reactor" "impl"
      (Impl_blocking.pass ~target:"loop-reactor" g loop_blocking);
  (* the lock pass is meaningful over any sources: raw-mutex is global *)
  add "lock-discipline" "impl"
    (Impl_locks.pass ~target:"lock-discipline" g runtime_locks);
  if Callgraph.module_present g durable_ordering.Impl_durable.file_module
  then begin
    let cfg =
      (* only demand the Manager-side ack check when Manager is in scope *)
      if Callgraph.module_present g "Durable.Manager" then durable_ordering
      else { durable_ordering with Impl_durable.append_callers = [] }
    in
    add "durable-ordering" "impl"
      (Impl_durable.pass ~target:"durable-ordering" g ~sources cfg)
  end;
  List.rev !reports
