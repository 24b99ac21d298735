(* The `vvc serve` daemon loop: a select-based single-threaded server
   multiplexing line-delimited JSON-RPC clients over a Unix or TCP
   socket, feeding one {!Vv_multishot.Engine}.

   Lifecycle of a submission: a [submit] line is parsed, queued on the
   engine (ack carries the assigned position), and after each read burst
   the engine [step]s — every slot that filled up is decided (sharded
   across the engine's [jobs] domains) and its decisions are broadcast to
   every connected client as notifications.  [flush] forces a partial
   slot; [status] reports engine stats; [catchup ~from] replays the
   committed log to one client (how a restarted consumer or a {!Replica}
   follower resynchronises); [shutdown] snapshots and stops the loop.

   Write path: every connection is a {!Chan} — a non-blocking fd with a
   bounded outbound queue flushed when select reports writability — so a
   stalled consumer can never block decision broadcast to anyone else.
   A client whose unsent queue passes [max_outq] bytes is disconnected
   (the slow-consumer policy, counted in the outcome); it can reconnect
   and [catchup] from wherever it left off.  A client whose partial line
   passes {!Chan.max_line} is disconnected too, counted in the outcome
   and reported by [status].

   Durability: with [?snapshot] the committed log is written atomically
   (tmp + rename, {!Vv_prelude.Io.write_atomic}) after every commit burst
   and on shutdown; at startup an existing snapshot is loaded so a
   restarted server resumes at its previous height.  Pending submissions
   are never snapshotted — unacknowledged-by-decision traffic is the
   clients' to resubmit.

   The loop is deliberately single-threaded: determinism comes from the
   engine (positions in arrival order, slot computation pure), and the
   protocol work itself is what parallelises — across the engine's worker
   domains, not across request handlers. *)

module Json = Vv_prelude.Json
module Io = Vv_prelude.Io
module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine

let default_max_outq = 1 lsl 20

(* --- listeners --- *)

(* An existing file at [path] is only removed when it is provably a stale
   socket (connect refused); a live daemon's socket must not be stolen
   out from under it. *)
let listen_unix path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
        Unix.close probe;
        failwith
          (Printf.sprintf
             "%s: a live daemon is already listening on this socket; stop \
              it first or choose another path"
             path)
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
        Unix.close probe;
        Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Unix.close probe
    | exception e ->
        Unix.close probe;
        raise e
  end;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp ?(host = "127.0.0.1") port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 64;
  fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Server.bound_port: unix socket"

(* --- the serve loop --- *)

type outcome = {
  height : int;
  served_clients : int;
  slow_disconnects : int;
  long_line_disconnects : int;
}

let write_snapshot ?log engine = function
  | None -> ()
  | Some path -> (
      let body = Json.to_string (Engine.to_snapshot engine) ^ "\n" in
      match Io.write_atomic ~path body with
      | Ok () -> ()
      | Error msg -> (
          match log with
          | Some f -> f (Printf.sprintf "snapshot write failed: %s" msg)
          | None -> ()))

let load_engine ?batch ?jobs ~snapshot cfg =
  match snapshot with
  | Some path when Sys.file_exists path -> (
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error msg -> Error msg
      | body -> (
          match Json.of_string (String.trim body) with
          | Error msg -> Error (Printf.sprintf "%s: not valid JSON: %s" path msg)
          | Ok j -> (
              match Engine.of_snapshot ?batch ?jobs cfg j with
              | Ok engine -> Ok engine
              | Error msg -> Error (Printf.sprintf "%s: %s" path msg))))
  | _ -> Ok (Engine.create ?batch ?jobs cfg)

let serve ?batch ?jobs ?snapshot ?log ?(max_outq = default_max_outq) ?sndbuf
    ~listen cfg =
  (* A client that disappears mid-write must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let engine =
    match load_engine ?batch ?jobs ~snapshot cfg with
    | Ok e -> e
    | Error msg -> failwith ("Server.serve: cannot load snapshot: " ^ msg)
  in
  let info msg = match log with Some f -> f msg | None -> () in
  info
    (Printf.sprintf "serving n=%d t=%d batch=%d height=%d"
       cfg.Ledger.n cfg.Ledger.t (Engine.batch engine) (Engine.height engine));
  let clients : (Unix.file_descr, Chan.t) Hashtbl.t = Hashtbl.create 64 in
  let served = ref 0 in
  let slow = ref 0 in
  let long_lines = ref 0 in
  let running = ref true in
  let send ch line =
    match Chan.enqueue ch ~max_outq line with
    | `Ok -> ()
    | `Overflow ->
        incr slow;
        info
          (Printf.sprintf
             "disconnecting slow consumer (%d unsent bytes > %d budget)"
             (Chan.unsent ch) max_outq)
  in
  let broadcast line = Hashtbl.iter (fun _ ch -> send ch line) clients in
  let commit decided =
    if decided <> [] then begin
      List.iter
        (fun s -> broadcast (Rpc.decision ~batch:(Engine.batch engine) s))
        decided;
      write_snapshot ?log engine snapshot
    end
  in
  let handle ch line =
    if String.trim line <> "" then
      match Rpc.parse line with
      | Error msg -> send ch (Rpc.error ~id:Json.Null msg)
      | Ok (Rpc.Submit { id; subject; inputs }) -> (
          match Engine.submit engine ~subject inputs with
          | position ->
              send ch
                (Rpc.submit_ack ~id ~position
                   ~slot:(Engine.slot_of engine position)
                   ~lane:(Engine.lane_of engine position))
          | exception Invalid_argument msg -> send ch (Rpc.error ~id msg))
      | Ok (Rpc.Flush { id }) ->
          let decided = Engine.flush engine in
          commit decided;
          send ch
            (Rpc.result ~id
               (Json.Obj [ ("flushed", Json.Int (List.length decided)) ]))
      | Ok (Rpc.Status { id }) ->
          send ch
            (Rpc.result ~id
               (Rpc.status_json
                  ~extra:
                    [
                      ("role", Json.String "primary");
                      ("long_line_disconnects", Json.Int !long_lines);
                    ]
                  engine))
      | Ok (Rpc.Catchup { id; from }) ->
          let replay = Engine.decisions_from engine from in
          send ch
            (Rpc.result ~id
               (Json.Obj [ ("replaying", Json.Int (List.length replay)) ]));
          List.iter
            (fun s -> send ch (Rpc.decision ~batch:(Engine.batch engine) s))
            replay
      | Ok (Rpc.Shutdown { id }) ->
          send ch
            (Rpc.result ~id (Json.Obj [ ("stopping", Json.Bool true) ]));
          running := false
  in
  (* Close a dead client's connection, counting it if its line grew past
     the limit. *)
  let drop (fd, ch) =
    if Chan.death ch = Some Chan.Long_line then begin
      incr long_lines;
      info
        (Printf.sprintf "disconnected a client whose line passed %d bytes"
           Chan.max_line)
    end;
    Chan.close ch;
    Hashtbl.remove clients fd
  in
  let accept () =
    match Unix.accept listen with
    | cfd, _ ->
        (match sndbuf with
        | Some bytes -> (
            try Unix.setsockopt_int cfd Unix.SO_SNDBUF bytes
            with Unix.Unix_error _ -> ())
        | None -> ());
        incr served;
        Hashtbl.replace clients cfd (Chan.of_fd cfd)
    | exception
        Unix.Unix_error
          ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED),
           _, _) ->
        ()
  in
  while !running do
    let rfds =
      Hashtbl.fold
        (fun fd ch acc -> if Chan.alive ch then fd :: acc else acc)
        clients [ listen ]
    in
    let wfds =
      Hashtbl.fold
        (fun fd ch acc -> if Chan.want_write ch then fd :: acc else acc)
        clients []
    in
    match Unix.select rfds wfds [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        List.iter
          (fun fd ->
            match Hashtbl.find_opt clients fd with
            | Some ch -> Chan.flush_write ch
            | None -> ())
          writable;
        List.iter
          (fun fd ->
            if fd = listen then accept ()
            else
              match Hashtbl.find_opt clients fd with
              | None -> ()
              | Some ch -> List.iter (handle ch) (Chan.read_lines ch))
          readable;
        (* Decide every slot the burst filled, then drop dead clients. *)
        commit (Engine.step engine);
        let dead =
          Hashtbl.fold
            (fun fd ch acc -> if Chan.alive ch then acc else (fd, ch) :: acc)
            clients []
        in
        List.iter drop dead
  done;
  write_snapshot ?log engine snapshot;
  (* Last-gasp flush so shutdown responses reach clients that are reading. *)
  Hashtbl.iter
    (fun _ ch ->
      Chan.flush_write ch;
      Chan.close ch)
    clients;
  info (Printf.sprintf "stopped at height %d" (Engine.height engine));
  {
    height = Engine.height engine;
    served_clients = !served;
    slow_disconnects = !slow;
    long_line_disconnects = !long_lines;
  }
