(* Wrap a Byzantine Broadcast sub-machine as a full engine protocol, for
   direct testing and benchmarking of the substrate.

   Sub-machines are specified in lock-step local rounds where every message
   sent in local round r arrives by local round r+1.  To run them under a
   bounded delay delta > 1 the wrapper batches engine rounds: local round r
   spans engine rounds (r-1)*delta+1 .. r*delta, buffering arrivals and
   stepping the sub-machine at the end of each batch — the standard
   timeout-per-round realisation of a synchronous protocol.  The engine's
   outbox is handed straight through to the sub-machine (its message type
   is the wrapper's message type), so the wrapper adds no per-send cost.
   At a batch boundary with an empty buffer, a shared engine window is
   decoded once for all recipients ({!Bb_intf.shared_decode}). *)

open Vv_sim

type bb_input = { sender : Types.node_id; value : int option }

module Make (Sub : Bb_intf.S) :
  Protocol.S
    with type input = bb_input
     and type msg = Sub.msg
     and type output = int = struct
  type input = bb_input
  type msg = Sub.msg
  type output = int

  type state = {
    sub : Sub.state;
    delta : int;
    total_engine_rounds : int;
    buffer : msg Bb_intf.inbox;  (* arrivals of the current batch *)
    finished : bool;
  }

  let name = Sub.name
  let equal_msg = Sub.equal_msg

  let init (ctx : Protocol.ctx) { sender; value } ~outbox =
    let delta =
      match ctx.delta with
      | Some d -> d
      | None ->
          invalid_arg
            (Sub.name ^ ": requires a known delay bound (synchronous network)")
    in
    let sub = Sub.start ~n:ctx.n ~t:ctx.t ~me:ctx.me ~sender ~value ~outbox in
    {
      sub;
      delta;
      total_engine_rounds = Sub.rounds ~n:ctx.n ~t:ctx.t * delta;
      buffer = Bb_intf.inbox_create ();
      finished = false;
    }

  (* Every wrapper message is the sub-machine's. *)
  let push ib src m =
    Bb_intf.inbox_push ib src m;
    true

  let step (ctx : Protocol.ctx) st ~round ~inbox ~outbox =
    if st.finished then st
    else begin
      let boundary = round mod st.delta = 0 in
      let sub_inbox =
        if boundary then Bb_intf.shared_decode inbox ~buffer:st.buffer ~push
        else st.buffer
      in
      if sub_inbox.Bb_intf.stamp < 0 then
        for i = 0 to Inbox.length inbox - 1 do
          Bb_intf.inbox_push st.buffer (Inbox.src inbox i) (Inbox.msg inbox i)
        done;
      if boundary then begin
        let lround = round / st.delta in
        let sub =
          Sub.step ~n:ctx.n ~t:ctx.t ~me:ctx.me st.sub ~lround ~inbox:sub_inbox
            ~outbox
        in
        Bb_intf.inbox_clear st.buffer;
        { st with sub; finished = round >= st.total_engine_rounds }
      end
      else st
    end

  let output st = if st.finished then Some (Sub.result st.sub) else None
  let phase st = if st.finished then "done" else "broadcast"

  (* A finished wrapper never steps its substrate again and emits
     nothing. *)
  let inert st = st.finished
end
