(* The simulator as a runtime instance.

   Pure plumbing over an existing {!Sim.Engine.t}: inputs, contexts and
   node ids pass through one-to-one, so a world driven through this
   adapter schedules exactly the events it would have scheduled before the
   runtime layer existed — same-seed runs stay byte-identical, and the
   engine's scheduler hook (lib/check) keeps working untouched. *)

module E = Sim.Engine

let input = function
  | E.Init -> Core.Init
  | E.Recv { src; msg } -> Core.Recv { src; msg }
  | E.Timer { id; tag } -> Core.Timer { id; tag }

let ctx (ectx : 'm E.ctx) : 'm Core.ctx =
  {
    Core.ctx_self = E.self ectx;
    ctx_now = (fun () -> E.time ectx);
    ctx_send = (fun ~size dst m -> E.send ectx ~size dst m);
    ctx_set_timer = (fun delay tag -> E.set_timer ectx delay tag);
    ctx_cancel_timer = (fun id -> E.cancel_timer ectx id);
    ctx_charge = (fun s -> E.charge ectx s);
    ctx_trace = (fun line -> E.trace ectx line);
    ctx_observe = None;
  }

(* [tap] observes every dispatch without touching the engine's event
   queue, so an observed same-seed run schedules exactly what an
   unobserved one does. *)
let of_engine ?(tap : 'm Core.tap option) (e : 'm E.t) : 'm Core.t =
  {
    Core.rt_now = (fun () -> E.now e);
    rt_spawn =
      (fun ~name ~cpu_factor factory ->
        E.spawn e ~name ~cpu_factor (fun () ->
            let h = factory () in
            fun ectx i ->
              let c = Core.instrument tap (ctx ectx) in
              let i = input i in
              Core.tap_input tap c i;
              h c i));
  }
