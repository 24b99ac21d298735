(** The follower daemon (`vvc serve --follow ADDR`): connects to a
    primary {!Server} with retry, resyncs via [catchup] from its own
    snapshot height, applies the primary's decision stream to a local
    committed log ({!Vv_multishot.Engine.append_committed}), and serves
    read-only [status]/[catchup] to its own clients over the same
    {!Rpc} protocol. [submit] is refused; [flush] is a no-op.

    When the primary dies, the follower keeps serving reads and probes
    the primary address every [retry_every] seconds; after the primary
    restarts from its snapshot, the follower re-catches-up from the
    height it reached, converging to a log byte-identical to the
    primary's (pinned by campaign E19). *)

type outcome = {
  height : int;
  served_clients : int;
  catchups : int;
      (** resyncs: [catchup] requests the primary acknowledged *)
}

val run :
  ?batch:int ->
  ?jobs:int ->
  ?snapshot:string ->
  ?log:(string -> unit) ->
  ?max_outq:int ->
  ?retry_every:float ->
  primary:Unix.sockaddr ->
  listen:Unix.file_descr ->
  Vv_multishot.Ledger.config ->
  outcome
(** Run until a [shutdown] request from a client. [cfg]/[batch] must
    match the primary's (the snapshot config echo enforces this across
    restarts). With [?snapshot] the replicated log persists atomically
    after every applied burst, and an existing snapshot seeds the resync
    height at boot. [retry_every] (default 0.25 s) paces reconnection
    probes; [max_outq] is the {!Server.serve} slow-consumer bound for
    this follower's own clients. The caller owns [listen]. *)
