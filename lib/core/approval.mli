(** Approval voting with voting validity (extension).

    Each voter endorses a {e set} of acceptable options (Parhami's
    taxonomy [16], which the paper cites for the plurality scheme); the
    option with the most honest endorsements must win exactly. A Byzantine
    node adds at most [t] bogus endorsements to any single option, so the
    Property-2 argument carries over: exactness whenever the honest
    endorsement gap exceeds [t] ([quorum_gap = 0]), safety-guaranteed
    behaviour at a gap above [2t] ([quorum_gap = t]). *)

module Oid = Vv_ballot.Option_id

type subject = int

type exec = {
  outputs : Oid.t option list;  (** honest nodes, node-id order *)
  trace : Vv_sim.Trace.snapshot;  (** round counts and the stall verdict *)
}

val honest_leader :
  tie:Vv_ballot.Tie_break.t -> Oid.t list list -> Vv_ballot.Tally.top option
(** Endorsement tally decomposition of a list of honest approval sets
    (duplicates within one set count once). *)

val approval_validity :
  tie:Vv_ballot.Tie_break.t ->
  honest_approvals:Oid.t list list ->
  outputs:Oid.t option list ->
  bool
(** The approval analogue of Definition III.3: when one option strictly
    leads the honest endorsements, every decided output must be it. *)

module Make (Sub : Vv_bb.Bb_intf.S) : sig
  type msg =
    | Prepare of Sub.msg
    | Approve of { subject : subject; choices : Oid.t list }
    | Propose of { subject : subject; choice : Oid.t }

  type input = {
    speaker : Vv_sim.Types.node_id;
    subject : subject;
    approvals : Oid.t list;  (** non-empty set of endorsed options *)
    quorum_gap : int;  (** delta_P: 0 for BFT, [t] for safety-guaranteed *)
    tie : Vv_ballot.Tie_break.t;
  }

  module P :
    Vv_sim.Protocol.S
      with type input = input
       and type msg = msg
       and type output = Oid.t

  module E : module type of Vv_sim.Engine.Make (P)

  val collude_second :
    ?tie:Vv_ballot.Tie_break.t -> unit -> msg Vv_sim.Adversary.t
  (** Byzantine nodes endorse (only) the honest runner-up. *)

  val execute :
    Vv_sim.Config.t ->
    speaker:Vv_sim.Types.node_id ->
    subject:subject ->
    approvals:(Vv_sim.Types.node_id -> Oid.t list) ->
    quorum_gap:int ->
    ?tie:Vv_ballot.Tie_break.t ->
    collude:bool ->
    unit ->
    exec
end
