(* Lock-discipline pass.

   The socket runtime guards shared state with one mutex per deployment
   and a [locked] helper: [Mutex.lock] then the critical section under
   [Fun.protect ~finally:unlock], so an exception cannot leave the lock
   held. OCaml mutexes are non-reentrant, so a nested acquisition is a
   self-deadlock, and anything slow inside a critical section stalls
   every thread that shares the lock. This pass checks four conventions:

   - [raw-mutex]: [Mutex.lock]/[Mutex.unlock] referenced outside a
     configured helper — ad-hoc pairs are exactly the exception-leaks-
     the-lock defect class;
   - [unprotected-lock]: a configured helper that does not route the
     unlock through [Fun.protect];
   - [blocking-under-lock]: a blocking call reachable from inside a
     critical section (a thunk passed to a helper). [Condition.wait] is
     exempt — it atomically releases the mutex while waiting, which is
     the one legitimate block-while-holding pattern;
   - [lock-order]: a helper (or raw [Mutex.lock]) reachable from inside
     a critical section — with non-reentrant mutexes any nested
     acquisition on the same deployment deadlocks, and acquiring a
     second lock under the first is how cross-deployment inversions
     start, so the discipline is simply "never acquire under a lock";
   - [dispatch-under-lock]: handler dispatch reachable from a critical
     section — user handlers run arbitrary protocol code and may send
     (hence lock) recursively. *)

type config = {
  helpers : string list; (* with-lock helpers, fully qualified *)
  dispatchers : string list; (* handler-dispatch functions *)
}

(* Blocking minus Condition.wait (see above). *)
let blocking_under_lock callee =
  callee <> "Condition.wait" && Impl_blocking.is_blocking callee

let pass ~target (g : Callgraph.t) (cfg : config) =
  let diag = Diag.v ~pass:"impl-locks" ~target in
  let out = ref [] in
  let seen = Hashtbl.create 16 in
  let emit ~code ~site fmt =
    Format.kasprintf
      (fun msg ->
        if not (Hashtbl.mem seen (code, site)) then (
          Hashtbl.replace seen (code, site) ();
          out := diag ~code ~site "%s" msg :: !out))
      fmt
  in
  let all_defs = Callgraph.defs g in
  (* raw-mutex: lock/unlock outside the helpers *)
  List.iter
    (fun (d : Callgraph.def) ->
      if not (List.mem d.Callgraph.d_name cfg.helpers) then
        List.iter
          (fun (e : Callgraph.edge) ->
            match e.Callgraph.e_callee with
            | "Mutex.lock" | "Mutex.unlock" ->
                emit ~code:"raw-mutex" ~site:e.Callgraph.e_site
                  "raw %s in %s — route critical sections through a \
                   Fun.protect-based locked helper"
                  e.Callgraph.e_callee d.Callgraph.d_name
            | _ -> ())
          (Callgraph.edges d))
    all_defs;
  (* unprotected-lock: helper shape *)
  List.iter
    (fun h ->
      match Callgraph.find_def g h with
      | None -> ()
      | Some d ->
          let has callee =
            List.exists
              (fun (e : Callgraph.edge) -> e.Callgraph.e_callee = callee)
              (Callgraph.edges d)
          in
          if not (has "Mutex.lock" && has "Fun.protect" && has "Mutex.unlock")
          then
            emit ~code:"unprotected-lock" ~site:d.Callgraph.d_site
              "helper %s must take the lock and release it via \
               Fun.protect ~finally on all paths"
              h)
    cfg.helpers;
  (* under-lock reachability: seed from edges tagged by the graph as
     occurring inside a helper's critical-section thunk *)
  let classify ~site ~via callee =
    if blocking_under_lock callee then
      emit ~code:"blocking-under-lock" ~site
        "blocking call %s while holding the lock (%s)" callee via
    else if List.mem callee cfg.helpers || callee = "Mutex.lock" then
      emit ~code:"lock-order" ~site
        "lock acquisition %s while already holding a lock (%s) — \
         non-reentrant mutex, nested acquisition deadlocks or inverts"
        callee via
    else if List.mem callee cfg.dispatchers then
      emit ~code:"dispatch-under-lock" ~site
        "handler dispatch %s while holding the lock (%s)" callee via
  in
  let locked_seeds = ref [] in
  List.iter
    (fun (d : Callgraph.def) ->
      List.iter
        (fun (e : Callgraph.edge) ->
          match e.Callgraph.e_lock with
          | Some helper ->
              classify ~site:e.Callgraph.e_site
                ~via:
                  (Printf.sprintf "in %s's critical section inside %s"
                     helper d.Callgraph.d_name)
                e.Callgraph.e_callee;
              locked_seeds := e.Callgraph.e_callee :: !locked_seeds
          | None -> ())
        (Callgraph.edges d))
    all_defs;
  (* transitively: anything the critical section calls *)
  let r = Callgraph.reach g ~roots:!locked_seeds in
  List.iter
    (fun (d : Callgraph.def) ->
      if Callgraph.reached r d.Callgraph.d_name then
        List.iter
          (fun (e : Callgraph.edge) ->
            classify ~site:e.Callgraph.e_site
              ~via:
                (Printf.sprintf "under lock via %s"
                   (Callgraph.chain r d.Callgraph.d_name))
              e.Callgraph.e_callee)
          (Callgraph.edges d))
    (Callgraph.defs g);
  List.rev !out
