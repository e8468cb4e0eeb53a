(* The lightweight online conformance monitor.

   An in-process tap for socket clusters that checks, while the
   system runs, the two properties cheap enough to verify inline:

   - per-link FIFO: message digests are queued at [Ob_send] and checked
     off in order at the matching [Recv] dispatch — the channel
     assumption every protocol here makes, verified end-to-end through
     whatever transport the runtime uses (the loop runtime's internal
     recorder checks its own delivery path; this one is
     runtime-agnostic);
   - fingerprint agreement: every sampled state checkpoint at total-order
     position s must carry the hash every other replica reported there.

   Digests are [Hashtbl.hash] of the decoded message — collisions can
   mask a violation, never invent one. The FIFO leg assumes a crash-free
   run (messages in flight to a crashed node are legitimately lost); on
   [Ob_crash] the crashed node's inbound digest queues are forgotten,
   mirroring the loop runtime's recorder. *)

type t = {
  mu : Mutex.t;
  links : (int * int, int Queue.t) Hashtbl.t;  (* (src, dst) -> digests *)
  hashes : (int, int * int) Hashtbl.t;  (* seqno -> (node, hash) *)
  mutable checked : int;
  mutable fifo_violations : int;
  mutable agreement_violations : int;
  mutable messages : string list;  (* newest first, capped *)
}

let max_messages = 20

let create () =
  {
    mu = Mutex.create ();
    links = Hashtbl.create 64;
    hashes = Hashtbl.create 1024;
    checked = 0;
    fifo_violations = 0;
    agreement_violations = 0;
    messages = [];
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let note t msg =
  if List.length t.messages < max_messages then t.messages <- msg :: t.messages

let link_q t key =
  match Hashtbl.find_opt t.links key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace t.links key q;
      q

let tap (t : t) : 'm Runtime.tap =
 fun ~self ~now:_ ob ->
  match ob with
  | Runtime.Ob_send { dst; msg } ->
      let h = Hashtbl.hash msg in
      locked t (fun () -> Queue.push h (link_q t (self, dst)))
  | Runtime.Ob_input (Runtime.Recv { src; msg }) ->
      let h = Hashtbl.hash msg in
      locked t (fun () ->
          t.checked <- t.checked + 1;
          let ok =
            match Queue.take_opt (link_q t (src, self)) with
            | Some h0 -> h0 = h
            | None -> false
          in
          if not ok then begin
            t.fifo_violations <- t.fifo_violations + 1;
            note t
              (Printf.sprintf "per-link FIFO violation on %d->%d" src self)
          end)
  | Runtime.Ob_checkpoint { seqno; hash; _ } ->
      locked t (fun () ->
          t.checked <- t.checked + 1;
          match Hashtbl.find_opt t.hashes seqno with
          | None -> Hashtbl.replace t.hashes seqno (self, hash)
          | Some (n0, h0) ->
              if h0 <> hash then begin
                t.agreement_violations <- t.agreement_violations + 1;
                note t
                  (Printf.sprintf
                     "fingerprint disagreement at seqno %d: node %d has %x, \
                      node %d had %x"
                     seqno self hash n0 h0)
              end)
  | Runtime.Ob_crash ->
      locked t (fun () ->
          Hashtbl.iter (fun (_, d) q -> if d = self then Queue.clear q) t.links)
  | Runtime.Ob_input (Runtime.Init | Runtime.Timer _)
  | Runtime.Ob_deliver _ | Runtime.Ob_restart ->
      ()

let checked t = locked t (fun () -> t.checked)

let violations t =
  locked t (fun () -> t.fifo_violations + t.agreement_violations)

let messages t = locked t (fun () -> List.rev t.messages)

let summary t =
  locked t (fun () ->
      Printf.sprintf
        "online monitor: %d checks, %d FIFO violations, %d agreement \
         violations"
        t.checked t.fifo_violations t.agreement_violations)
