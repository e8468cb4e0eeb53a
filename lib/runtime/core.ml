(* The protocol-agnostic runtime layer.

   A protocol node is a [handler]: a function from a capability record
   ([ctx]) and an input to unit. The capability record is the whole
   interface a node has to the world hosting it — send a message, arm or
   cancel a timer, account CPU work, read the clock — so the same handler
   runs unchanged on the deterministic simulator ({!Of_sim}) and on a
   real socket deployment ({!Loop}). This mirrors the paper's deployment
   story: one spec-faithful state machine, model-checked in a controlled
   environment and executed on a physical cluster. *)

type 'm input =
  | Init  (** Delivered once when the node starts (and again on restart). *)
  | Recv of { src : Sim.Node_id.t; msg : 'm }  (** A message arrival. *)
  | Timer of { id : int; tag : string }  (** An armed timer fired. *)

type 'm obs =
  | Ob_input of 'm input  (** The runtime dispatched an input to a node. *)
  | Ob_send of { dst : Sim.Node_id.t; msg : 'm }  (** The node sent. *)
  | Ob_deliver of { seqno : int; origin : int; id : int; payload : string }
      (** A totally-ordered entry reached the replicated state machine. *)
  | Ob_checkpoint of { gseq : int; seqno : int; hash : int }
      (** State fingerprint right after applying delivery [seqno]. *)
  | Ob_crash
  | Ob_restart
(** One observable step of a node's execution. Inputs, sends, crashes and
    restarts are emitted by the runtimes themselves; delivery and
    checkpoint observations are emitted by protocol code (the SMR replica)
    through {!observe}, because self-deliveries never cross the wire. *)

type 'm ctx = {
  ctx_self : Sim.Node_id.t;
  ctx_now : unit -> float;
  ctx_send : size:int -> Sim.Node_id.t -> 'm -> unit;
  ctx_set_timer : float -> string -> int;
  ctx_cancel_timer : int -> unit;
  ctx_charge : float -> unit;
  ctx_trace : string -> unit;
  ctx_observe : ('m obs -> unit) option;
      (** Conformance observation sink; [None] (the default) keeps the
          hot path a single branch per observation site. *)
}
(** What a node may do while processing an input. On the simulator these
    capabilities map to {!Sim.Engine}'s handler operations (virtual time,
    charged CPU extending the busy period); on the socket runtime they map
    to sockets and the monotonic wall clock, and [charge] is recorded but
    costs nothing — real CPU time is already real. *)

type 'm handler = 'm ctx -> 'm input -> unit

type 'm t = {
  rt_spawn :
    name:string -> cpu_factor:float -> (unit -> 'm handler) -> Sim.Node_id.t;
  rt_now : unit -> float;
}
(** A runtime instance exchanging messages of type ['m]. Inputs are only
    delivered once the instance is driven ([Sim.Engine.run] /
    {!Loop.start}), so spawners may wire mutual references between nodes
    after spawning and before anything executes. *)

type 'm codec = { enc : 'm -> string; dec : string -> ('m, string) result }
(** Wire format for ['m], required by runtimes that move bytes between
    address spaces. [dec] must reject truncated or corrupt buffers. *)

let now t = t.rt_now ()

let spawn t ~name ?(cpu_factor = 1.0) factory =
  t.rt_spawn ~name ~cpu_factor factory

(* Handler-side operations, mirroring Sim.Engine's names so protocol code
   ports by module renaming alone. *)

let self c = c.ctx_self
let time c = c.ctx_now ()
let send c ?(size = 64) dst m = c.ctx_send ~size dst m
let set_timer c delay tag = c.ctx_set_timer delay tag
let cancel_timer c id = c.ctx_cancel_timer id
let charge c seconds = c.ctx_charge seconds
let trace c line = c.ctx_trace line

(* Conformance observation. [observing] lets protocol code skip expensive
   observation arguments (state fingerprints) when nothing listens. *)

let observing c = c.ctx_observe <> None
let observe c ob = match c.ctx_observe with None -> () | Some f -> f ob

type 'm tap = self:Sim.Node_id.t -> now:float -> 'm obs -> unit
(** A runtime-level observation sink: every observable step of every node,
    stamped with the observing node and its clock. Attached at runtime
    construction ([Of_sim.of_engine ?tap], [Loop.create ?tap]); a tap
    must be cheap and, off the simulator, thread-safe — it runs inline on
    the dispatching (reactor) thread while harness threads read it. *)

let tap_all (taps : 'm tap list) : 'm tap =
 fun ~self ~now ob -> List.iter (fun t -> t ~self ~now ob) taps

(* Helpers the runtimes share to wire a tap into their dispatch paths
   without duplicating the option plumbing. *)

let instrument (tap : 'm tap option) (c : 'm ctx) : 'm ctx =
  match tap with
  | None -> c
  | Some tap ->
      let emit ob = tap ~self:c.ctx_self ~now:(c.ctx_now ()) ob in
      {
        c with
        ctx_send =
          (fun ~size dst m ->
            emit (Ob_send { dst; msg = m });
            c.ctx_send ~size dst m);
        ctx_observe = Some emit;
      }

let tap_input (tap : 'm tap option) (c : 'm ctx) (i : 'm input) =
  match tap with
  | None -> ()
  | Some tap -> tap ~self:c.ctx_self ~now:(c.ctx_now ()) (Ob_input i)
