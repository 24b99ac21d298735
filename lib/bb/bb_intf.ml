(* Common interface of the Byzantine Broadcast / Agreement sub-machines.

   A sub-machine is a fixed-duration round protocol that can be embedded
   inside a larger protocol (Phase 1 of Algorithms 1-3 embeds one to
   broadcast the subject) or wrapped into a full Protocol.S for direct
   execution (Protocol_of).  Values are integers; [bottom] (-1) encodes the
   absence of a valid value, on which nodes may also agree when the sender
   is faulty.

   Sends are pushed into the caller-supplied {!Vv_sim.Outbox.t} (the
   embedding protocol either passes the engine's outbox straight through
   or transfer-wraps the entries into its own message type); arrivals are
   read from an {!inbox} the embedder fills across delta-batched engine
   rounds — a reusable growable pair of parallel arrays, so buffering a
   delivery costs no allocation on the engine's hot path.

   Decode once: when every node reads the same engine window (a shared
   window, {!Vv_sim.Inbox.stamp} >= 0) at a batch boundary with nothing
   buffered from earlier rounds of the batch, each recipient's copy
   would be the same entries.  [shared_decode] then unwraps the window
   once per stamp into one per-domain inbox, stamped with the window's
   stamp, and every recipient steps its sub-machine on that inbox,
   read-only.  Sub-machines may key a reduction of a stamped inbox by
   its stamp (Phase_king's Val count does): it is an exact image of one
   window, and no other inbox carries that stamp.  The embedders
   ({!Protocol_of} and [Voting.Make]) go through this one helper;
   anything else — a per-recipient window, a mixed bucket, a non-empty
   batch buffer, a window holding messages that are not the
   sub-machine's — takes the per-node copy. *)

let bottom = -1

(* The sub-machine inbox: parallel arrays of (source, message), valid on
   [0, len).  The embedder owns one per sub-machine instance, pushes every
   arrival of the current batch in delivery order, and clears it after the
   [step] call; sub-machines only read it, by index.  [stamp] is -1 for
   such a per-node buffer, and the window's stamp for a shared decode. *)
type 'msg inbox = {
  mutable srcs : int array;
  mutable msgs : 'msg array;  (* parallel to [srcs]; slots >= [len] stale *)
  mutable len : int;
  mutable stamp : int;
}

let inbox_create () = { srcs = [||]; msgs = [||]; len = 0; stamp = -1 }

let inbox_push ib src m =
  (if ib.len = Array.length ib.srcs then begin
     let ncap = if ib.len = 0 then 8 else 2 * ib.len in
     let srcs = Array.make ncap 0 and msgs = Array.make ncap m in
     Array.blit ib.srcs 0 srcs 0 ib.len;
     Array.blit ib.msgs 0 msgs 0 ib.len;
     ib.srcs <- srcs;
     ib.msgs <- msgs
   end);
  ib.srcs.(ib.len) <- src;
  ib.msgs.(ib.len) <- m;
  ib.len <- ib.len + 1

let inbox_clear ib = ib.len <- 0

(* Convenience for tests and one-shot callers. *)
let inbox_of_list l =
  let ib = inbox_create () in
  List.iter (fun (src, m) -> inbox_push ib src m) l;
  ib

(* The per-domain shared decode: [ib] holds the decode of window
   [ib.stamp] (-1: none) when [whole] — every entry was the
   sub-machine's.  Untyped like the engine's run context, so every
   embedder shares it; sub-machine messages are variants or ints, never
   floats, so an [Obj.t] array holds them as their own array would. *)
type decoded = { ib : Obj.t inbox; mutable whole : bool }

let decoded_key =
  Domain.DLS.new_key (fun () -> { ib = inbox_create (); whole = false })

(* Drop the decoded messages, stale slots included, at the end of a run
   ([Inbox.on_detach]). *)
let release_decoded () =
  let d = Domain.DLS.get decoded_key in
  Array.fill d.ib.msgs 0 (Array.length d.ib.msgs) (Obj.repr 0);
  d.ib.len <- 0;
  d.ib.stamp <- -1

(* The inbox a batch-boundary [step] reads: the shared decode of
   [window] when [buffer] is empty and [window] is shared and decodes
   whole, else [buffer] itself ([stamp] -1), which the caller then fills
   from [window] as before.  [push ib src m] pushes [m]'s sub-machine
   message into [ib] and returns true, or returns false (pushing
   nothing) when [m] is not a sub-machine message. *)
let shared_decode (window : 'm Vv_sim.Inbox.t) ~(buffer : 'sub inbox)
    ~(push : 'sub inbox -> int -> 'm -> bool) : 'sub inbox =
  let stamp = Vv_sim.Inbox.stamp window in
  if buffer.len > 0 || stamp < 0 then buffer
  else begin
    let d = Domain.DLS.get decoded_key in
    let ib : 'sub inbox = Obj.magic d.ib in
    if ib.stamp <> stamp then begin
      ib.len <- 0;
      ib.stamp <- stamp;
      let whole = ref true and i = ref 0 in
      let len = Vv_sim.Inbox.length window in
      while !whole && !i < len do
        whole :=
          push ib (Vv_sim.Inbox.src window !i) (Vv_sim.Inbox.msg window !i);
        incr i
      done;
      d.whole <- !whole;
      Vv_sim.Inbox.on_detach window release_decoded
    end;
    if d.whole then ib else buffer
  end

module type S = sig
  val name : string

  type state
  type msg

  val equal_msg : msg -> msg -> bool
  (** Structural message equality — monomorphic, so embedding it in a
      larger protocol's [equal_msg] never falls back to polymorphic
      compare. *)

  val rounds : n:int -> t:int -> int
  (** Total local rounds: [result] is defined after the inbox of local round
      [rounds n t] has been processed by [step]. *)

  val start :
    n:int ->
    t:int ->
    me:Vv_sim.Types.node_id ->
    sender:Vv_sim.Types.node_id ->
    value:int option ->
    outbox:msg Vv_sim.Outbox.t ->
    state
  (** Local round 0. [value] must be [Some v] (with [v >= 0]) exactly at the
      designated sender.  Sends are pushed into [outbox]. *)

  val step :
    n:int ->
    t:int ->
    me:Vv_sim.Types.node_id ->
    state ->
    lround:int ->
    inbox:msg inbox ->
    outbox:msg Vv_sim.Outbox.t ->
    state
  (** Local rounds 1 .. [rounds n t].  [inbox] is read-only and only valid
      for the duration of the call (the embedder clears and refills it). *)

  val result : state -> int
  (** The agreed value, or [bottom]. Defined once all rounds have run;
      querying earlier returns the current tentative value. *)
end
