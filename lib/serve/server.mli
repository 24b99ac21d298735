(** The `vvc serve` daemon: a single-threaded select loop multiplexing
    line-delimited JSON-RPC clients ({!Rpc}) over a Unix or TCP socket,
    feeding one {!Vv_multishot.Engine}. Submissions queue in arrival
    order; filled slots are decided (sharded across the engine's [jobs]
    domains) after every read burst and their decisions broadcast to all
    clients; [flush]/[status]/[catchup]/[shutdown] are served inline.

    Every connection's outbound traffic goes through a bounded
    non-blocking queue ({!Chan}), flushed when select reports the fd
    writable — one stalled consumer can never delay decision broadcast
    to the others. A client whose unsent queue exceeds [max_outq] bytes
    is disconnected (it can reconnect and [catchup]). *)

val default_max_outq : int
(** 1 MiB: the per-client unsent-byte budget used when [?max_outq] is
    omitted (here and in {!Replica}). *)

val listen_unix : string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket. An existing file at the
    path is probed with a connect first: only a provably stale socket
    (connect refused) is removed; if a live daemon answers, raises
    [Failure] with a clear message instead of stealing its socket. *)

val listen_tcp : ?host:string -> int -> Unix.file_descr
(** Bind and listen on [host:port] (default host 127.0.0.1); port [0]
    picks a free port — recover it with {!bound_port}. *)

val bound_port : Unix.file_descr -> int

type outcome = {
  height : int;
  served_clients : int;
  slow_disconnects : int;
      (** clients dropped by the bounded-outbound-queue policy *)
  long_line_disconnects : int;
      (** clients dropped for a partial line longer than {!Chan.max_line};
          [status] reports the running count *)
}

val write_snapshot :
  ?log:(string -> unit) -> Vv_multishot.Engine.t -> string option -> unit
(** Atomically persist the engine's committed log to the path (no-op on
    [None]); write failures are logged, never raised. Shared with
    {!Replica}. *)

val load_engine :
  ?batch:int ->
  ?jobs:int ->
  snapshot:string option ->
  Vv_multishot.Ledger.config ->
  (Vv_multishot.Engine.t, string) result
(** Build the engine a daemon boots with: resumed from [snapshot] when
    the file exists (failing on config mismatch or malformed JSON), a
    fresh engine otherwise. Shared with {!Replica}. *)

val serve :
  ?batch:int ->
  ?jobs:int ->
  ?snapshot:string ->
  ?log:(string -> unit) ->
  ?max_outq:int ->
  ?sndbuf:int ->
  listen:Unix.file_descr ->
  Vv_multishot.Ledger.config ->
  outcome
(** Run the loop until a [shutdown] request. With [?snapshot], the
    committed log is written atomically after every commit burst and on
    shutdown, and an existing snapshot file is loaded at startup so a
    restarted server resumes at its previous height (raises [Failure]
    when the file exists but disagrees with [cfg]). [batch]/[jobs] are
    {!Vv_multishot.Engine.create} parameters; [max_outq] (default
    {!default_max_outq}) bounds each client's unsent bytes before the
    slow-consumer disconnect; [sndbuf] shrinks each accepted socket's
    kernel send buffer (testing/tuning hook). The caller owns [listen]
    (and the socket file, for Unix sockets). *)
