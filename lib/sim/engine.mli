(** Deterministic round-based execution engine.

    Executes a {!Protocol.S} state machine on every honest (and
    not-yet-crashed) node, delivers messages according to the configured
    delay model, applies the crash filter of {!Fault}, and hands a rushing
    full-information adversary this round's honest traffic before letting it
    inject Byzantine messages. The engine validates adversary output against
    the communication model: equivocation or partial broadcast under
    {!Types.Local_broadcast} is an invalid adversary (this is the
    restriction behind Property 6).

    Every run additionally produces an immutable {!Trace.snapshot} with
    per-round send counts, adversary injections, per-node phase transitions
    and decide rounds. *)

exception Invalid_adversary of string

val log_src : Logs.src
(** Round-level tracing source ("vv.engine"); set its level to [Debug] to
    watch sends and decisions per round. *)

module Make (P : Protocol.S) : sig
  type result = {
    config : Config.t;
    outputs : P.output option array;
        (** indexed by node id; Byzantine slots stay [None] *)
    decision_round : int option array;
        (** 0-based index of the round each node decided in *)
    trace : Trace.snapshot;
        (** the run's accounting: message and round counts
            ([total_rounds]) and the stall verdict ([stalled]) *)
  }

  val honest_outputs : result -> P.output option list
  (** Outputs of the honest nodes, in node-id order. *)

  val run :
    Config.t ->
    inputs:(Types.node_id -> P.input) ->
    ?adversary:P.msg Adversary.t ->
    unit ->
    (result, [ `Invalid_adversary of string ]) Stdlib.result
  (** Runs to decision or [max_rounds]. [inputs] is consulted for honest and
      crash-faulty nodes (Byzantine inputs are the adversary's business).
      An adversary violating the fault plan or the communication model
      yields [Error (`Invalid_adversary reason)] instead of raising — the
      form batch executors want. *)

  val run_exn :
    Config.t ->
    inputs:(Types.node_id -> P.input) ->
    ?adversary:P.msg Adversary.t ->
    unit ->
    result
  (** Same, but raises {!Invalid_adversary} — the original behaviour, kept
      for interactive callers and tests that assert on the exception. *)
end

val exec :
  (module Protocol.S with type input = 'i and type msg = 'm and type output = 'o) ->
  Config.t ->
  inputs:(Types.node_id -> 'i) ->
  ?adversary:'m Adversary.t ->
  unit ->
  'o option list * Trace.snapshot
(** [exec (module P) cfg ~inputs ?adversary ()] runs [P] once, like
    [Make(P).run_exn], and returns the honest nodes' outputs in node-id
    order together with the run's trace. The entry for protocols executed
    outside a statically applied {!Make}. Raises {!Invalid_adversary}. *)
