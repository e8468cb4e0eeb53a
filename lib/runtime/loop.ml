(* The event-loop runtime: every node of a deployment multiplexed over
   one reactor.

   This is the one socket runtime. The whole deployment runs
   single-process on one reactor thread: all listeners, inbound
   connections and outbound sockets sit in a single [Unix.select], the
   timeout computed from the root of a timer wheel of pending node
   timers (no fixed tick), and sends go through bounded per-destination
   {!Outbox}es of already-encoded {!Frame}s that are flushed as one
   coalesced batch per readiness event. Protocol code
   is unchanged from the simulator ({!Of_sim}): every message takes the
   real wire path (codec encode → framed byte stream → codec decode),
   with no thread switches and no per-frame syscalls.

   Delivery is sink-polymorphic. A destination that lives in this
   process (the common case — the whole deployment does) gets a *local*
   sink: a flush drains the outbox's frame buffer straight into the
   destination's dispatch, so an entire request/reply chain runs at
   memcpy speed with no kernel round-trips; the reactor repeats flush
   passes to a fixpoint before re-entering [select], so chained sends
   settle within one readiness event. Destinations reached over a
   socket (or all of them, with [~direct:false]) get a *socket* sink:
   the identical buffer is flushed as one coalesced [Unix.write]. Either
   way frames take the same encode → outbox → drain path, so FIFO,
   backpressure and conformance recording behave identically.

   Connection multiplexing: outbound connections are keyed by
   *destination*, not (source, destination) — every local node sending to
   node [d] (in particular, every logical client) shares the single
   socket to [d], and the frame header's source id demultiplexes on the
   receiving side. Per-(src,dst) FIFO still holds: appends happen in
   dispatch order on the one reactor thread and the outbox is a FIFO byte
   queue over a TCP stream.

   Backpressure: when an outbox crosses its high watermark it *engages* —
   the nodes feeding it are parked (timers deferred, inbound reads
   paused, mid-drain dispatch suspended), the engagement is counted and
   surfaced through [on_backpressure], and producers resume once a flush
   drains the queue below the low watermark. A producer can overshoot the
   watermark only by what one handler dispatch emits, so queues stay
   bounded without dropping or reordering frames.

   Optional conformance recording ([record_delivery]): because both
   endpoints of every link live in this process, the runtime can remember
   a digest of each payload at append time and check it off at delivery —
   an end-to-end per-link FIFO/integrity monitor over the real wire path,
   used by the chaos drill and the saturation tests. *)

module F = Frame

(* ---------------------------------------------------------------- *)
(* Timer wheel                                                       *)
(* ---------------------------------------------------------------- *)

(* Binary min-heap of pending timers keyed (deadline, id) — the reactor's
   timer wheel. The select timeout is the distance to the root, so idle
   deployments sleep instead of burning a fixed tick. *)
module Wheel = struct
  type entry = { w_deadline : float; w_id : int; w_node : int; w_tag : string }
  type t = { mutable a : entry array; mutable size : int }

  let dummy = { w_deadline = 0.0; w_id = 0; w_node = 0; w_tag = "" }
  let create () = { a = Array.make 64 dummy; size = 0 }

  let before x y =
    x.w_deadline < y.w_deadline
    || (x.w_deadline = y.w_deadline && x.w_id < y.w_id)

  let swap t i j =
    let tmp = t.a.(i) in
    t.a.(i) <- t.a.(j);
    t.a.(j) <- tmp

  let push t e =
    if t.size = Array.length t.a then begin
      let na = Array.make (2 * t.size) dummy in
      Array.blit t.a 0 na 0 t.size;
      t.a <- na
    end;
    t.a.(t.size) <- e;
    t.size <- t.size + 1;
    let i = ref (t.size - 1) in
    while !i > 0 && before t.a.(!i) t.a.((!i - 1) / 2) do
      swap t !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let peek t = if t.size = 0 then None else Some t.a.(0)

  let pop t =
    let root = t.a.(0) in
    t.size <- t.size - 1;
    t.a.(0) <- t.a.(t.size);
    t.a.(t.size) <- dummy;
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < t.size && before t.a.(l) t.a.(!s) then s := l;
      if r < t.size && before t.a.(r) t.a.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        swap t !s !i;
        i := !s
      end
    done;
    root
end

(* ---------------------------------------------------------------- *)
(* State                                                             *)
(* ---------------------------------------------------------------- *)

type 'm node = {
  n_id : Sim.Node_id.t;
  n_name : string;
  n_factory : unit -> 'm Core.handler;
  mutable n_handler : 'm Core.handler option;  (* built at Init *)
  mutable n_ctx : 'm Core.ctx option;  (* cached capability record *)
  mutable n_listen : Unix.file_descr;
  mutable n_port : int;
  mutable n_alive : bool;
  mutable n_inited : bool;
  mutable n_parked : int;  (* congested outboxes currently parking us *)
  n_deferred : (int * string) Queue.t;  (* timers due while parked *)
  mutable n_last_now : float;
  mutable n_charged : float;
}

type 'm conn = {
  c_fd : Unix.file_descr;
  c_buf : F.buf;
  c_node : 'm node;  (* destination: every frame on this conn is for it *)
  mutable c_closed : bool;  (* fd gone; buffered frames may remain *)
}

(* Where a destination's flushed frames go: straight into an in-process
   node's dispatch, or out a shared non-blocking socket. *)
type 'm sink = S_node of 'm node | S_sock of Unix.file_descr

type 'm mux = {
  m_dst : Sim.Node_id.t;
  m_sink : 'm sink;
  m_out : Outbox.t;
  mutable m_waiters : 'm node list;  (* producers parked on this outbox *)
}

type cmd = Crash of Sim.Node_id.t | Restart of Sim.Node_id.t

type 'm t = {
  codec : 'm Core.codec;
  tap : 'm Core.tap option;  (* conformance observation sink *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable cmds : cmd list;  (* FIFO, oldest first *)
  mutable cmd_seq : int;
  mutable cmd_done : int;
  mutable nodes : 'm node list;  (* newest first *)
  by_id : (Sim.Node_id.t, 'm node) Hashtbl.t;
  ports : (Sim.Node_id.t, int) Hashtbl.t;
  mutable next_id : int;
  mutable init_dirty : bool;  (* some node awaits its Init dispatch *)
  muxes : (Sim.Node_id.t, 'm mux) Hashtbl.t;
  mutable conns : 'm conn list;
  wheel : Wheel.t;
  cancelled : (int, unit) Hashtbl.t;
  mutable timer_seq : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  phase : int Atomic.t;  (* 0 idle, 1 running, 2 stopped *)
  mutable thread : Thread.t option;
  t0 : float;
  mutable mono_last : float;
  mutable traces : (float * Sim.Node_id.t * string) list;
  mutable errors : string list;
  high : int;
  low : int;
  direct : bool;  (* local sinks for in-process destinations *)
  on_backpressure : (dst:Sim.Node_id.t -> bytes:int -> unit) option;
  (* Aggregate counters (reactor-thread writes; cross-thread readers
     tolerate a stale read of a plain int). *)
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable delivered_msgs : int;
  mutable park_events : int;
  mutable engage_events : int;
  mutable peak_outbox : int;
  mutable retired_writes : int;
  mutable retired_bytes : int;
  (* Delivery recording (conformance): per-link queues of payload
     digests pushed at append, checked off at delivery. *)
  record : bool;
  links : (Sim.Node_id.t * Sim.Node_id.t, int Queue.t) Hashtbl.t;
  mutable fifo_violations : int;
}

type stats = {
  s_sent_msgs : int;
  s_sent_bytes : int;
  s_delivered_msgs : int;
  s_flush_writes : int;  (* frames out / writes = coalescing batch size *)
  s_flushed_bytes : int;
  s_backpressure : int;  (* high-watermark engagements *)
  s_parked : int;  (* producer park events *)
  s_peak_outbox_bytes : int;
  s_fifo_violations : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Wall clock relative to creation. [mono_last] smooths over clock
   steps; the unsynchronized update is a benign race — per-node
   monotonicity is enforced separately in [node_now], and a stale read
   here only rounds an off-thread observation down to a recent value. *)
let now t =
  let raw = Unix.gettimeofday () -. t.t0 in
  if raw > t.mono_last then t.mono_last <- raw;
  t.mono_last

let record_error t msg = locked t (fun () -> t.errors <- msg :: t.errors)
let errors t = locked t (fun () -> List.rev t.errors)
let get_trace t = locked t (fun () -> List.rev t.traces)

let create ?(high = Outbox.default_high) ?(low = Outbox.default_low)
    ?(direct = true) ?on_backpressure ?(record_delivery = false) ?tap ~codec ()
    =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    codec;
    tap;
    lock = Mutex.create ();
    cond = Condition.create ();
    cmds = [];
    cmd_seq = 0;
    cmd_done = 0;
    nodes = [];
    by_id = Hashtbl.create 16;
    ports = Hashtbl.create 16;
    next_id = 0;
    init_dirty = false;
    muxes = Hashtbl.create 16;
    conns = [];
    wheel = Wheel.create ();
    cancelled = Hashtbl.create 16;
    timer_seq = 0;
    wake_r;
    wake_w;
    phase = Atomic.make 0;
    thread = None;
    t0 = Unix.gettimeofday ();
    mono_last = 0.0;
    traces = [];
    errors = [];
    high;
    low;
    direct;
    on_backpressure;
    sent_msgs = 0;
    sent_bytes = 0;
    delivered_msgs = 0;
    park_events = 0;
    engage_events = 0;
    peak_outbox = 0;
    retired_writes = 0;
    retired_bytes = 0;
    record = record_delivery;
    links = Hashtbl.create 32;
    fifo_violations = 0;
  }

let stats t =
  let w = ref t.retired_writes and b = ref t.retired_bytes in
  Hashtbl.iter
    (fun _ m ->
      w := !w + m.m_out.Outbox.writes;
      b := !b + m.m_out.Outbox.flushed_bytes)
    t.muxes;
  {
    s_sent_msgs = t.sent_msgs;
    s_sent_bytes = t.sent_bytes;
    s_delivered_msgs = t.delivered_msgs;
    s_flush_writes = !w;
    s_flushed_bytes = !b;
    s_backpressure = t.engage_events;
    s_parked = t.park_events;
    s_peak_outbox_bytes = t.peak_outbox;
    s_fifo_violations = t.fifo_violations;
  }

let backpressure_events t = t.engage_events
let fifo_violations t = t.fifo_violations

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()  (* a full pipe already wakes the reactor *)

(* ---------------------------------------------------------------- *)
(* Sockets                                                           *)
(* ---------------------------------------------------------------- *)

let make_listener () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> (fd, p)
  | _ -> Sim.Invariant.fail "loop" "listener: unexpected address family"

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---------------------------------------------------------------- *)
(* Delivery recording                                                *)
(* ---------------------------------------------------------------- *)

let link_q t key =
  match Hashtbl.find_opt t.links key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace t.links key q;
      q

let record_sent t ~src ~dst payload =
  if t.record then Queue.push (Hashtbl.hash payload) (link_q t (src, dst))

let record_delivered t ~src ~dst payload =
  if t.record then begin
    let ok =
      match Queue.take_opt (link_q t (src, dst)) with
      | Some h -> h = Hashtbl.hash payload
      | None -> false
    in
    if not ok then begin
      t.fifo_violations <- t.fifo_violations + 1;
      record_error t
        (Printf.sprintf "loop: per-link FIFO violation on %d->%d" src dst)
    end
  end

(* Frames queued for a crashed destination vanish with its sockets:
   forget the inbound half of its links so post-restart traffic is not
   matched against digests of lost frames. Outbound links (the crashed
   node as source) stay: frames it appended before dying sit in shared
   outboxes and will still be delivered. *)
let record_crash t id =
  if t.record then
    Hashtbl.iter (fun (_, d) q -> if d = id then Queue.clear q) t.links

(* ---------------------------------------------------------------- *)
(* Dispatch, send, parking                                           *)
(* ---------------------------------------------------------------- *)

let node_now t node =
  let v = now t in
  if v > node.n_last_now then node.n_last_now <- v;
  node.n_last_now

let park t mux node =
  if not (List.memq node mux.m_waiters) then begin
    mux.m_waiters <- node :: mux.m_waiters;
    node.n_parked <- node.n_parked + 1;
    t.park_events <- t.park_events + 1
  end

let find_node t id = locked t (fun () -> Hashtbl.find_opt t.by_id id)

(* Dispatch an input to a node's handler, trapping handler exceptions
   into {!errors}. Mutually recursive with the send path because
   unparking resumes deferred dispatches. *)
let rec dispatch t node input =
  match node.n_handler with
  | None -> ()  (* crashed: the input is lost with the process *)
  | Some _ when not node.n_inited ->
      (* Spawned but not yet [Init]ed (handlers are pre-built at spawn):
         a frame racing the init dispatch is dropped like a message to a
         node still booting. *)
      ()
  | Some handler -> (
      let c = ctx_for t node in
      Core.tap_input t.tap c input;
      try handler c input
      with e ->
        record_error t
          (Printf.sprintf "node %d (%s): handler raised %s" node.n_id
             node.n_name (Printexc.to_string e)))

and ctx_for t node =
  match node.n_ctx with
  | Some c -> c
  | None ->
      let c =
        {
          Core.ctx_self = node.n_id;
          ctx_now = (fun () -> node_now t node);
          ctx_send = (fun ~size:_ dst m -> send t node dst m);
          ctx_set_timer =
            (fun delay tag ->
              t.timer_seq <- t.timer_seq + 1;
              let id = t.timer_seq in
              let deadline = node_now t node +. Float.max 0.0 delay in
              Wheel.push t.wheel
                {
                  Wheel.w_deadline = deadline;
                  w_id = id;
                  w_node = node.n_id;
                  w_tag = tag;
                };
              id);
          ctx_cancel_timer = (fun id -> Hashtbl.replace t.cancelled id ());
          ctx_charge = (fun s -> node.n_charged <- node.n_charged +. s);
          ctx_trace =
            (fun line ->
              let at = node_now t node in
              locked t (fun () ->
                  t.traces <- (at, node.n_id, line) :: t.traces));
          ctx_observe = None;
        }
      in
      let c = Core.instrument t.tap c in
      node.n_ctx <- Some c;
      c

(* The zero-copy send path: encode once, append straight into the
   destination's outbox (lazily connecting the shared per-destination
   socket), park the producer if the outbox is congested. No syscall
   happens here — the reactor flushes the whole outbox as one coalesced
   write when it next services the socket. *)
and send t node dst msg =
  if node.n_alive then
    match mux_for t dst with
    | None -> ()  (* unknown or crashed peer: behaves like a lost message *)
    | Some mux ->
        let payload = t.codec.Core.enc msg in
        record_sent t ~src:node.n_id ~dst payload;
        (match Outbox.append mux.m_out ~src:node.n_id ~payload with
        | `Engaged -> (
            t.engage_events <- t.engage_events + 1;
            match t.on_backpressure with
            | Some f -> f ~dst ~bytes:(Outbox.pending mux.m_out)
            | None -> ())
        | `Ok -> ());
        t.sent_msgs <- t.sent_msgs + 1;
        t.sent_bytes <- t.sent_bytes + F.header + String.length payload;
        let p = Outbox.pending mux.m_out in
        if p > t.peak_outbox then t.peak_outbox <- p;
        if Outbox.engaged mux.m_out then park t mux node

and mux_for t dst =
  match Hashtbl.find_opt t.muxes dst with
  | Some m -> Some m
  | None -> (
      let register sink =
        let m =
          {
            m_dst = dst;
            m_sink = sink;
            m_out = Outbox.create ~high:t.high ~low:t.low ();
            m_waiters = [];
          }
        in
        Hashtbl.replace t.muxes dst m;
        Some m
      in
      match (if t.direct then find_node t dst else None) with
      | Some n when n.n_alive -> register (S_node n)
      | Some _ -> None  (* crashed: lost, like a refused connect *)
      | None -> (
          match locked t (fun () -> Hashtbl.find_opt t.ports dst) with
          | None -> None
          | Some port -> (
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              try
                Unix.connect fd
                  (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
                Unix.setsockopt fd Unix.TCP_NODELAY true;
                Unix.set_nonblock fd;
                register (S_sock fd)
              with Unix.Unix_error _ ->
                close_quiet fd;
                None)))

(* Tear down a destination's mux: retire its counters, unpark anyone
   waiting on its (now discarded) outbox. *)
and retire_mux t mux =
  t.retired_writes <- t.retired_writes + mux.m_out.Outbox.writes;
  t.retired_bytes <- t.retired_bytes + mux.m_out.Outbox.flushed_bytes;
  (match mux.m_sink with S_sock fd -> close_quiet fd | S_node _ -> ());
  Hashtbl.remove t.muxes mux.m_dst;
  let waiters = mux.m_waiters in
  mux.m_waiters <- [];
  List.iter (fun n -> unpark t n) waiters

(* A producer resumes: dispatch the timers that came due while it was
   parked, then the inbound frames that stayed buffered — stopping again
   immediately if any of that re-congests an outbox. *)
and unpark t node =
  node.n_parked <- node.n_parked - 1;
  if node.n_parked <= 0 then begin
    node.n_parked <- 0;
    let continue = ref true in
    while !continue && not (Queue.is_empty node.n_deferred) do
      let id, tag = Queue.pop node.n_deferred in
      if Hashtbl.mem t.cancelled id then Hashtbl.remove t.cancelled id
      else dispatch t node (Core.Timer { id; tag });
      if node.n_parked > 0 then continue := false
    done;
    if node.n_parked = 0 then
      List.iter (fun c -> if c.c_node == node then drain_conn t c) t.conns
  end

(* Decode and dispatch one delivered frame — the endpoint both local
   and socket sinks funnel into. *)
and deliver t node ~src payload =
  t.delivered_msgs <- t.delivered_msgs + 1;
  record_delivered t ~src ~dst:node.n_id payload;
  match t.codec.Core.dec payload with
  | Ok msg -> dispatch t node (Core.Recv { src; msg })
  | Error e ->
      record_error t
        (Printf.sprintf "node %d: undecodable frame from %d: %s" node.n_id src
           e)

and drain_conn t conn =
  let node = conn.c_node in
  F.drain
    ~stop:(fun () -> node.n_parked > 0 || not node.n_alive)
    conn.c_buf
    ~frame:(fun ~src payload -> deliver t node ~src payload)
    ~bad:(fun len ->
      record_error t
        (Printf.sprintf "node %d: bad frame length %d" node.n_id len))

(* ---------------------------------------------------------------- *)
(* Reactor                                                           *)
(* ---------------------------------------------------------------- *)

(* One flush pass over every outbox. Socket sinks get one coalesced
   write; local sinks drain straight into the destination's dispatch.
   Returns the bytes delivered to local sinks, so the reactor can repeat
   passes to a fixpoint — chained sends settle without a select
   round-trip. Iterates a snapshot because local dispatch can register
   new muxes mid-pass (those are picked up next pass). *)
let flush_all t =
  let muxes = Hashtbl.fold (fun _ m acc -> m :: acc) t.muxes [] in
  let closed = ref [] and local = ref 0 in
  List.iter
    (fun mux ->
      if Outbox.pending mux.m_out > 0 then begin
        let release () =
          if Outbox.release mux.m_out then begin
            let waiters = mux.m_waiters in
            mux.m_waiters <- [];
            List.iter (fun n -> unpark t n) waiters
          end
        in
        match mux.m_sink with
        | S_sock fd -> (
            match Outbox.flush mux.m_out fd with
            | `Closed -> closed := mux :: !closed
            | `Drained | `Partial -> release ())
        | S_node dst ->
            local :=
              !local
              + Outbox.flush_local mux.m_out
                  ~stop:(fun () -> dst.n_parked > 0 || not dst.n_alive)
                  ~frame:(fun ~src payload -> deliver t dst ~src payload)
                  ~bad:(fun len ->
                    record_error t
                      (Printf.sprintf "node %d: bad frame length %d" dst.n_id
                         len));
            release ()
      end)
    muxes;
  List.iter (fun m -> retire_mux t m) !closed;
  !local

(* Dispatch [Init] to nodes that have not seen it. The handler is
   normally pre-built at [spawn] (on the caller's thread, off the
   reactor's critical path); after a restart it is rebuilt here. *)
let init_pending t nodes =
  if t.init_dirty then begin
    t.init_dirty <- false;
    List.iter
      (fun node ->
        if node.n_alive && not node.n_inited then begin
          node.n_inited <- true;
          (match node.n_handler with
          | Some _ -> ()
          | None -> node.n_handler <- Some (node.n_factory ()));
          dispatch t node Core.Init
        end)
      nodes
  end

let fire_due t =
  let rec go () =
    match Wheel.peek t.wheel with
    | Some e when e.Wheel.w_deadline <= now t ->
        let e = Wheel.pop t.wheel in
        if Hashtbl.mem t.cancelled e.Wheel.w_id then
          Hashtbl.remove t.cancelled e.Wheel.w_id
        else
          (match find_node t e.Wheel.w_node with
          | Some node when node.n_alive ->
              if node.n_parked > 0 then
                Queue.push (e.Wheel.w_id, e.Wheel.w_tag) node.n_deferred
              else
                dispatch t node
                  (Core.Timer { id = e.Wheel.w_id; tag = e.Wheel.w_tag })
          | _ -> ());
        go ()
    | _ -> ()
  in
  go ()

(* Distance to the earliest pending live timer — the timer wheel replaces
   a fixed tick — capped at 1s for shutdown responsiveness. Cancelled or
   orphaned roots are discarded on the way. *)
let next_timeout t =
  let rec skim () =
    match Wheel.peek t.wheel with
    | Some e
      when Hashtbl.mem t.cancelled e.Wheel.w_id
           || (match find_node t e.Wheel.w_node with
              | Some n -> not n.n_alive
              | None -> true) ->
        let e = Wheel.pop t.wheel in
        Hashtbl.remove t.cancelled e.Wheel.w_id;
        skim ()
    | other -> other
  in
  match skim () with
  | None -> 1.0
  | Some e -> Float.min 1.0 (Float.max 0.0 (e.Wheel.w_deadline -. now t))

let do_crash t id =
  match find_node t id with
  | Some node when node.n_alive ->
      node.n_alive <- false;
      node.n_inited <- false;
      node.n_handler <- None;
      node.n_ctx <- None;
      close_quiet node.n_listen;
      List.iter (fun c -> if c.c_node == node then close_quiet c.c_fd) t.conns;
      t.conns <- List.filter (fun c -> c.c_node != node) t.conns;
      (match Hashtbl.find_opt t.muxes id with
      | Some m -> retire_mux t m
      | None -> ());
      locked t (fun () -> Hashtbl.remove t.ports id);
      Queue.clear node.n_deferred;
      (* Remove the dead node from any waiter list it sat on. *)
      Hashtbl.iter
        (fun _ m -> m.m_waiters <- List.filter (fun n -> n != node) m.m_waiters)
        t.muxes;
      node.n_parked <- 0;
      record_crash t id;
      (match t.tap with
      | None -> ()
      | Some tap -> tap ~self:id ~now:(now t) Core.Ob_crash)
  | _ -> ()

let do_restart t id =
  match find_node t id with
  | Some node when not node.n_alive ->
      let listen, port = make_listener () in
      node.n_listen <- listen;
      node.n_port <- port;
      node.n_alive <- true;
      node.n_charged <- 0.0;
      t.init_dirty <- true;
      locked t (fun () -> Hashtbl.replace t.ports id port);
      (match t.tap with
      | None -> ()
      | Some tap -> tap ~self:id ~now:(now t) Core.Ob_restart)
  | _ -> ()

let apply_cmd t = function
  | Crash id -> do_crash t id
  | Restart id -> do_restart t id

let process_cmds t =
  let cmds =
    locked t (fun () ->
        let c = t.cmds in
        t.cmds <- [];
        c)
  in
  List.iter
    (fun cmd ->
      apply_cmd t cmd;
      locked t (fun () ->
          t.cmd_done <- t.cmd_done + 1;
          Condition.broadcast t.cond))
    cmds

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

let accept_conns t node =
  let rec go () =
    match Unix.accept node.n_listen with
    | cfd, _ ->
        Unix.setsockopt cfd Unix.TCP_NODELAY true;
        Unix.set_nonblock cfd;
        t.conns <-
          { c_fd = cfd; c_buf = F.create 65536; c_node = node; c_closed = false }
          :: t.conns;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let read_conn t conn =
  match F.read_into conn.c_buf conn.c_fd with
  | `Data n -> if n > 0 then drain_conn t conn
  | `Closed ->
      drain_conn t conn;
      close_quiet conn.c_fd;
      conn.c_closed <- true

let reactor t =
  while Atomic.get t.phase < 2 do
    process_cmds t;
    let nodes = List.rev (locked t (fun () -> t.nodes)) in
    init_pending t nodes;
    fire_due t;
    (* Flush to a fixpoint: local delivery dispatches handlers whose
       sends land in outboxes, so repeat passes until one moves nothing.
       The pass budget keeps a long chain from starving timers and
       commands — when it trips, select runs with a zero timeout and the
       next iteration resumes the remaining work. *)
    let hot = ref true and passes = ref 0 in
    while !hot && !passes < 64 do
      hot := flush_all t > 0;
      incr passes
    done;
    (* Closed connections whose buffers have fully drained can go. *)
    t.conns <-
      List.filter (fun c -> not (c.c_closed && F.is_empty c.c_buf)) t.conns;
    let reads =
      t.wake_r
      :: List.filter_map
           (fun n -> if n.n_alive then Some n.n_listen else None)
           nodes
      @ List.filter_map
          (fun c ->
            if (not c.c_closed) && c.c_node.n_alive && c.c_node.n_parked = 0
            then Some c.c_fd
            else None)
          t.conns
    in
    let writes =
      Hashtbl.fold
        (fun _ m acc ->
          match m.m_sink with
          | S_sock fd when Outbox.pending m.m_out > 0 -> fd :: acc
          | S_sock _ | S_node _ -> acc)
        t.muxes []
    in
    let timeout = if !hot then 0.0 else next_timeout t in
    let rds, _, _ =
      match Unix.select reads writes [] timeout with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd == t.wake_r then drain_wake t
        else
          match
            List.find_opt (fun n -> n.n_alive && n.n_listen == fd) nodes
          with
          | Some node -> accept_conns t node
          | None -> (
              match
                List.find_opt (fun c -> (not c.c_closed) && c.c_fd == fd) t.conns
              with
              | Some conn -> read_conn t conn
              | None -> ()))
      rds
    (* Writable muxes are serviced by [flush_all] at the next loop top. *)
  done;
  (* Shutdown: retire the flush counters of surviving muxes (so [stats]
     stays accurate after [stop]) and close everything the reactor owns. *)
  List.iter (fun c -> if not c.c_closed then close_quiet c.c_fd) t.conns;
  t.conns <- [];
  Hashtbl.iter
    (fun _ m ->
      t.retired_writes <- t.retired_writes + m.m_out.Outbox.writes;
      t.retired_bytes <- t.retired_bytes + m.m_out.Outbox.flushed_bytes;
      match m.m_sink with S_sock fd -> close_quiet fd | S_node _ -> ())
    t.muxes;
  Hashtbl.reset t.muxes;
  List.iter
    (fun n -> if n.n_alive then close_quiet n.n_listen)
    (locked t (fun () -> t.nodes))

(* ---------------------------------------------------------------- *)
(* Lifecycle                                                         *)
(* ---------------------------------------------------------------- *)

let spawn t ~name ~cpu_factor:_ factory =
  let listen, port = make_listener () in
  (* Build the handler now, on the spawning thread: state-machine
     construction (e.g. seeding a replica's database) happens during
     deployment, not on the reactor after [start]. *)
  let handler = factory () in
  let node =
    locked t (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        let node =
          {
            n_id = id;
            n_name = name;
            n_factory = factory;
            n_handler = Some handler;
            n_ctx = None;
            n_listen = listen;
            n_port = port;
            n_alive = true;
            n_inited = false;
            n_parked = 0;
            n_deferred = Queue.create ();
            n_last_now = 0.0;
            n_charged = 0.0;
          }
        in
        Hashtbl.replace t.ports id port;
        Hashtbl.replace t.by_id id node;
        t.nodes <- node :: t.nodes;
        node)
  in
  t.init_dirty <- true;
  if Atomic.get t.phase = 1 then wake t;
  node.n_id

let runtime t : 'm Core.t =
  {
    Core.rt_now = (fun () -> now t);
    rt_spawn =
      (fun ~name ~cpu_factor factory -> spawn t ~name ~cpu_factor factory);
  }

(* The reactor thread is pre-spawned here, parked until {!start} flips
   the phase — so [start] costs a condition signal, not a thread
   creation, and a benchmark window opened at [start] measures the
   deployment, not the OS. A stop before any start (phase 0 → 2) slides
   past the while loop straight into reactor cleanup. *)
let reactor_entry t =
  locked t (fun () ->
      while Atomic.get t.phase = 0 do
        Condition.wait t.cond t.lock
      done);
  reactor t

(* Shadow the state-only constructor: a runtime is born with its parked
   reactor thread attached. *)
let create ?high ?low ?direct ?on_backpressure ?record_delivery ?tap ~codec ()
    =
  let t =
    create ?high ?low ?direct ?on_backpressure ?record_delivery ?tap ~codec ()
  in
  t.thread <- Some (Thread.create reactor_entry t);
  t

let start t =
  if Atomic.compare_and_set t.phase 0 1 then
    locked t (fun () -> Condition.broadcast t.cond)

let stop t =
  if Atomic.get t.phase <> 2 then begin
    Atomic.set t.phase 2;
    (* Order matters: the thread may be parked in [reactor_entry] (needs
       the broadcast) or blocked in select (needs the wake byte). *)
    locked t (fun () -> Condition.broadcast t.cond);
    wake t;
    (match t.thread with Some th -> Thread.join th | None -> ());
    close_quiet t.wake_r;
    close_quiet t.wake_w;
    (* Release anyone blocked in [submit] on a command the reactor will
       never process. *)
    locked t (fun () -> Condition.broadcast t.cond)
  end

(* Run a crash/restart command: synchronously when the reactor is not
   running, else enqueued and awaited so the caller observes a quiesced
   node: once [crash] returns, the node dispatches nothing more. *)
let submit t cmd =
  if Atomic.get t.phase <> 1 then apply_cmd t cmd
  else begin
    let target =
      locked t (fun () ->
          t.cmds <- t.cmds @ [ cmd ];
          t.cmd_seq <- t.cmd_seq + 1;
          t.cmd_seq)
    in
    wake t;
    locked t (fun () ->
        while t.cmd_done < target && Atomic.get t.phase = 1 do
          Condition.wait t.cond t.lock
        done)
  end

let crash t id = submit t (Crash id)
let restart t id = submit t (Restart id)

(* Poll [pred] until it holds or [timeout] elapses; true iff it held.
   The poll interval backs off from 50µs to [poll], so short waits — a
   bench run can finish in single-digit milliseconds — resolve with
   microsecond latency while long waits stay cheap. *)
let await ?(timeout = 60.0) ?(poll = 0.002) t pred =
  let deadline = now t +. timeout in
  let rec go interval =
    if pred () then true
    else if now t > deadline then false
    else begin
      Thread.delay interval;
      go (Float.min poll (interval *. 2.0))
    end
  in
  go (Float.min poll 0.00005)

let port_of t id = locked t (fun () -> Hashtbl.find_opt t.ports id)
