(** Read-only inbox view — the receive half of the protocol message API.

    A {!Protocol.S} step receives its round's arrivals as an indexed
    window over the engine's per-round delivery arena, whose entries
    index a payload table holding each message once per send.  Nodes'
    windows may overlap: in a round whose arrivals are all broadcasts
    to every node, all nodes share one window, identified by its
    {!stamp}.  Entries appear
    in the engine's deterministic inbox order: sorted by sender id,
    ties in scheduling order (exactly the order the old assoc-list
    inboxes had).  Reading a view allocates nothing.

    Views are transient: they are valid only for the duration of the
    [step] call they are passed to (the engine reuses one view value
    and the arena behind it for every node and round).  Protocols that
    need to keep arrivals across rounds must copy them out, e.g. with
    {!to_list} or {!rev_append_to}. *)

type 'msg t

val length : 'msg t -> int
val is_empty : 'msg t -> bool

val src : 'msg t -> int -> Types.node_id
(** Sender of entry [i] (0-indexed within this view). *)

val msg : 'msg t -> int -> 'msg
(** Message of entry [i]. *)

val stamp : 'msg t -> int
(** The identity of a shared window: [>= 0] when every node stepping
    this round reads this same window (the engine's all-row rounds),
    and then different from the stamp of every other window the process
    has shown, in any run, context or domain; [-1] for a window of this
    recipient's own and for an empty one.  A reduction that depends
    only on the window's entries may be computed once per stamp and
    shared by every recipient. *)

val on_detach : 'msg t -> (unit -> unit) -> unit
(** [on_detach t f]: call [f] when the engine detaches the view at the
    end of the run (replacing any earlier [f]).  A reader that caches a
    decode of a shared window registers here the function that drops
    the cached messages, so they do not outlive the run. *)

val iter : (Types.node_id -> 'msg -> unit) -> 'msg t -> unit
(** Apply to every entry in inbox order. *)

val fold : ('acc -> Types.node_id -> 'msg -> 'acc) -> 'acc -> 'msg t -> 'acc

val to_list : 'msg t -> (Types.node_id * 'msg) list
(** Copy the view out as the old-style assoc list, in inbox order. *)

val rev_append_to :
  'msg t -> (Types.node_id * 'msg) list -> (Types.node_id * 'msg) list
(** [rev_append_to t acc] conses the entries onto [acc] in reverse
    order — for protocols that accumulate a reversed cross-round
    buffer. *)

(** {2 Engine internals} *)

val create : unit -> 'msg t
(** An empty view (no arena attached). *)

val set_arena :
  'msg t ->
  srcs:int array ->
  pays:int array ->
  table:Obj.t array ->
  shared:bool ->
  unit
(** Attach the round's delivery arena: parallel sender and payload-index
    arrays, and the payload table the indices point into, which must
    hold values of type ['msg] (written via [Obj.repr]).  [shared]: every
    node's window this round is the whole arena, so the views set on it
    carry a fresh stamp.  The view is empty until {!set_view}. *)

val set_view : 'msg t -> off:int -> len:int -> unit
(** Point the view at the arena window [off .. off+len-1]. *)

val set_empty : 'msg t -> unit

val detach : 'msg t -> unit
(** Drop the arena and run (then forget) the {!on_detach} function: the
    end of a run. *)
