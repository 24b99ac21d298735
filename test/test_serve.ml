(* End-to-end tests of the serve daemon: a real server domain, real Unix
   sockets, multiple clients, snapshot restart and catch-up. *)

module Json = Vv_prelude.Json
module Oid = Vv_ballot.Option_id
module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine
module Rpc = Vv_serve.Rpc
module Server = Vv_serve.Server
module Replica = Vv_serve.Replica
module Client = Vv_serve.Client
module Chan = Vv_serve.Chan

let o = Oid.of_int
let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let cfg ?(seed = 0x5e7e) () =
  Ledger.config ~byzantine:[ 7; 8 ]
    ~retry:(Ledger.Rotate_and_adjust (Vv_core.Session.Bandwagon, 6))
    ~n:9 ~t:2 ~seed ()

let mixed_inputs i =
  if i mod 3 = 2 then List.map o [ 0; 0; 0; 1; 1; 2; 3 ] @ [ o 0; o 0 ]
  else
    List.init 7 (fun j -> if j = 6 then o ((i + 1) mod 3) else o (i mod 3))
    @ [ o 0; o 0 ]

let fresh_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "%s/vv-test-serve-%d-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !counter

(* Boot a daemon on a fresh socket, run [f path], always join the server
   (f is responsible for sending shutdown). *)
let with_server ?batch ?jobs ?snapshot ?max_outq ?sndbuf f =
  let path = fresh_path () in
  let listen = Server.listen_unix path in
  let daemon =
    Domain.spawn (fun () ->
        Server.serve ?batch ?jobs ?snapshot ?max_outq ?sndbuf ~listen (cfg ()))
  in
  let result = f path in
  let outcome = Domain.join daemon in
  Unix.close listen;
  if Sys.file_exists path then Sys.remove path;
  (result, outcome)

(* --- rpc parsing --- *)

let test_rpc_parse () =
  (match Rpc.parse {|{"id":7,"method":"submit","params":{"subject":3,"inputs":[0,1,0]}}|} with
  | Ok (Rpc.Submit { id; subject; inputs }) ->
      check_bool "id echoed" true (id = Json.Int 7);
      check_int "subject" 3 subject;
      check_int "arity" 3 (List.length inputs)
  | _ -> Alcotest.fail "submit should parse");
  (match Rpc.parse {|{"id":1,"method":"catchup"}|} with
  | Ok (Rpc.Catchup { from; _ }) -> check_int "default from" 0 from
  | _ -> Alcotest.fail "catchup should parse");
  check_bool "unknown method rejected" true
    (Result.is_error (Rpc.parse {|{"id":1,"method":"frobnicate"}|}));
  check_bool "non-object rejected" true (Result.is_error (Rpc.parse "[1,2]"));
  check_bool "bad inputs rejected" true
    (Result.is_error
       (Rpc.parse {|{"id":1,"method":"submit","params":{"subject":1,"inputs":["a"]}}|}))

let test_rpc_decision_roundtrip () =
  let slot = Ledger.compute (cfg ()) ~index:5 ~subject:42 (mixed_inputs 0) in
  match Rpc.decision_of_line (Rpc.decision ~batch:4 slot) with
  | Some slot' -> check_bool "slot round-trips the wire" true (slot = slot')
  | None -> Alcotest.fail "decision line should reconstruct"

(* --- end-to-end --- *)

let test_load_matches_local () =
  let reqs = List.init 17 (fun i -> (i, mixed_inputs i)) in
  let (report : Client.report), outcome =
    with_server ~batch:4 ~jobs:2 (fun path ->
        let conns =
          List.init 3 (fun _ -> Client.connect_unix ~retry_for:10. path)
        in
        let r =
          match Client.run_load ~shutdown:true ~conns reqs with
          | Ok r -> r
          | Error msg -> Alcotest.failf "run_load: %s" msg
        in
        List.iter Client.close conns;
        r)
  in
  check_int "all submitted" 17 report.Client.submitted;
  check_int "all decided" 17 (List.length report.Client.decisions);
  check_bool "no errors" true (report.Client.errors = []);
  check_int "server height" 17 outcome.Server.height;
  check_int "server saw the pool" 3 outcome.Server.served_clients;
  (* The socket path changes nothing: same log as an in-process engine. *)
  let expected, _ = Engine.run ~batch:4 ~jobs:1 (cfg ()) reqs in
  check_bool "socket == local engine" true (report.Client.decisions = expected)

let test_snapshot_restart_catchup () =
  let snapshot = Filename.temp_file "vv-serve" ".snap" in
  Sys.remove snapshot;
  let first = List.init 8 (fun i -> (i, mixed_inputs i)) in
  let second = List.init 6 (fun i -> (i + 8, mixed_inputs (i + 8))) in
  (* First life: commit 8 positions, shut down. *)
  let _, outcome1 =
    with_server ~batch:4 ~snapshot (fun path ->
        let conn = Client.connect_unix ~retry_for:10. path in
        (match Client.run_load ~shutdown:true ~conns:[ conn ] first with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "first life: %s" msg);
        Client.close conn)
  in
  check_int "first life height" 8 outcome1.Server.height;
  (* Second life: resumes at 8, serves catch-up from 0, extends to 14. *)
  let catchup_count, outcome2 =
    with_server ~batch:4 ~snapshot (fun path ->
        let conn = Client.connect_unix ~retry_for:10. path in
        Client.send conn
          {|{"id":"cu","method":"catchup","params":{"from":0}}|};
        let replayed = ref 0 in
        let rec drain () =
          match Client.recv_line ~timeout:10. conn with
          | None -> Alcotest.fail "catch-up stream ended early"
          | Some line -> (
              match Rpc.decision_of_line line with
              | Some _ ->
                  incr replayed;
                  if !replayed < 8 then drain ()
              | None -> drain ())
        in
        drain ();
        (match Client.run_load ~shutdown:true ~conns:[ conn ] second with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "second life: %s" msg);
        Client.close conn;
        !replayed)
  in
  check_int "full catch-up replayed" 8 catchup_count;
  check_int "restart resumed and extended" 14 outcome2.Server.height;
  (* The combined run equals one uninterrupted engine run: restart is
     invisible in the committed log. *)
  let snap_json =
    let ic = open_in_bin snapshot in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.of_string (String.trim body) with
    | Ok j -> j
    | Error m -> Alcotest.failf "snapshot unreadable: %s" m
  in
  let restored =
    match Engine.of_snapshot ~batch:4 (cfg ()) snap_json with
    | Ok e -> e
    | Error m -> Alcotest.failf "snapshot rejected: %s" m
  in
  let expected, _ = Engine.run ~batch:4 ~jobs:1 (cfg ()) (first @ second) in
  check_bool "two lives == one uninterrupted run" true
    (Engine.decisions restored = expected);
  Sys.remove snapshot

(* A snapshot cut short at any byte — a crash mid-copy, a full disk — is
   refused with an [Error] by the boot path both daemon kinds share, never
   an exception out of it. *)
let test_truncated_snapshot_rejected () =
  let snapshot = Filename.temp_file "vv-serve" ".snap" in
  let engine = Engine.create ~batch:4 (cfg ()) in
  List.iteri
    (fun i inputs -> ignore (Engine.submit engine ~subject:i inputs))
    (List.init 4 mixed_inputs);
  ignore (Engine.flush engine);
  Server.write_snapshot engine (Some snapshot);
  let body =
    String.trim (In_channel.with_open_bin snapshot In_channel.input_all)
  in
  let load () = Server.load_engine ~batch:4 ~snapshot:(Some snapshot) (cfg ()) in
  check_bool "the whole snapshot loads" true (Result.is_ok (load ()));
  for len = 0 to String.length body - 1 do
    Out_channel.with_open_bin snapshot (fun oc ->
        Out_channel.output_string oc (String.sub body 0 len));
    match load () with
    | Ok _ -> Alcotest.failf "snapshot truncated to %d bytes was accepted" len
    | Error _ -> ()
    | exception e ->
        Alcotest.failf "snapshot truncated to %d bytes raised %s" len
          (Printexc.to_string e)
  done;
  Sys.remove snapshot

let test_bad_requests_get_errors () =
  let (errors : string list), _ =
    with_server ~batch:2 (fun path ->
        let conn = Client.connect_unix ~retry_for:10. path in
        let errs = ref [] in
        let roundtrip line =
          Client.send conn line;
          match Client.recv_line ~timeout:10. conn with
          | None -> Alcotest.fail "no response"
          | Some resp -> (
              match Json.of_string resp with
              | Ok (Json.Obj fields) -> (
                  match List.assoc_opt "error" fields with
                  | Some _ -> errs := resp :: !errs
                  | None -> ())
              | _ -> ())
        in
        roundtrip "not json at all";
        roundtrip {|{"id":1,"method":"frobnicate"}|};
        roundtrip {|{"id":2,"method":"submit","params":{"subject":1,"inputs":[0]}}|};
        Client.send conn {|{"id":3,"method":"shutdown"}|};
        ignore (Client.recv_line ~timeout:10. conn);
        Client.close conn;
        !errs)
  in
  check_int "every bad request answered with an error" 3 (List.length errors)

(* A server dying under a client must surface as [Error] from the load
   driver — not as an uncaught EPIPE/ECONNRESET escaping [send] or
   [recv_line] (the pre-fix behaviour). *)
let test_server_death_is_an_error () =
  let result, _ =
    with_server ~batch:2 (fun path ->
        let victim = Client.connect_unix ~retry_for:10. path in
        let killer = Client.connect_unix ~retry_for:10. path in
        (match
           Client.request killer ~id:(Json.String "k") ~meth:"shutdown"
             (Json.Obj [])
         with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "shutdown request: %s" msg);
        Client.close killer;
        (* Give the daemon time to exit so the victim's socket is dead. *)
        Unix.sleepf 0.1;
        let reqs = List.init 6 (fun i -> (i, mixed_inputs i)) in
        let r = Client.run_load ~timeout:5. ~conns:[ victim ] reqs in
        Client.close victim;
        r)
  in
  match result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load against a dead server should be an Error"

(* Pipelined requests: a response read while awaiting a different id is
   stashed on the connection and handed back later, never dropped. *)
let test_out_of_order_responses_stashed () =
  let (), _ =
    with_server ~batch:2 (fun path ->
        let conn = Client.connect_unix ~retry_for:10. path in
        Client.send conn {|{"id":"a","method":"status"}|};
        Client.send conn {|{"id":"b","method":"status"}|};
        (* Await b first: a's response arrives first on the wire and must
           be stashed, then found by the later wait. *)
        (match Client.wait_response conn ~id:(Json.String "b") with
        | Ok (Json.Obj _) -> ()
        | Ok _ | Error _ -> Alcotest.fail "response b lost");
        (match Client.wait_response conn ~id:(Json.String "a") with
        | Ok (Json.Obj _) -> ()
        | Ok _ | Error _ -> Alcotest.fail "response a dropped");
        (match
           Client.request conn ~id:(Json.String "s") ~meth:"shutdown"
             (Json.Obj [])
         with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "shutdown: %s" msg);
        Client.close conn)
  in
  ()

(* A client that never reads must not stall decisions to anyone else:
   its outbound queue hits the bound, it is disconnected, the burst
   completes for the live clients. Small sndbuf + small max_outq keep
   the data volume test-sized (AF_UNIX limits in-flight bytes by the
   sender's SO_SNDBUF). *)
let test_stalled_consumer_disconnected () =
  let reqs = List.init 160 (fun i -> (i, mixed_inputs i)) in
  let (report : Client.report), outcome =
    with_server ~batch:4 ~max_outq:8192 ~sndbuf:4096 (fun path ->
        let stalled = Client.connect_unix ~retry_for:10. path in
        let conns =
          List.init 2 (fun _ -> Client.connect_unix ~retry_for:10. path)
        in
        let r =
          match Client.run_load ~shutdown:true ~conns reqs with
          | Ok r -> r
          | Error msg -> Alcotest.failf "run_load under a stalled peer: %s" msg
        in
        List.iter Client.close (stalled :: conns);
        r)
  in
  check_int "every position decided" 160 (List.length report.Client.decisions);
  check_bool "no errors" true (report.Client.errors = []);
  check_int "server height" 160 outcome.Server.height;
  check_bool "the stalled client was disconnected" true
    (outcome.Server.slow_disconnects >= 1)

(* --- line channel --- *)

(* A line dribbled in across many small reads comes back whole, and the
   lines that share a read with it are split correctly. *)
let test_chan_split_line () =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ch = Chan.of_fd r in
  let long = String.init 200_000 (fun i -> Char.chr (97 + (i mod 26))) in
  let got = ref [] in
  let drain () = got := !got @ Chan.read_lines ch in
  let piece = 97 in
  let rec feed ofs =
    if ofs < String.length long then begin
      let len = min piece (String.length long - ofs) in
      ignore (Unix.write_substring w long ofs len);
      drain ();
      feed (ofs + len)
    end
  in
  ignore (Unix.write_substring w "first\n" 0 6);
  drain ();
  feed 0;
  check_int "no line before its newline" 1 (List.length !got);
  let tail = "\nsecond\nthi" in
  ignore (Unix.write_substring w tail 0 (String.length tail));
  drain ();
  ignore (Unix.write_substring w "rd\n" 0 3);
  drain ();
  check (Alcotest.list Alcotest.string) "lines intact"
    [ "first"; long; "second"; "third" ] !got;
  check_bool "channel alive" true (Chan.alive ch);
  Chan.close ch;
  Unix.close w

(* One client streaming 8 MiB without a newline is disconnected once its
   partial line passes [Chan.max_line], and counted; another client is
   still served, and its [status] reports the disconnect. *)
let test_endless_line_disconnected () =
  let reported, outcome =
    with_server ~batch:2 (fun path ->
        let flood = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect flood (Unix.ADDR_UNIX path);
        (* A daemon that never disconnects fails the test, not hangs it. *)
        Unix.setsockopt_float flood Unix.SO_RCVTIMEO 10.;
        Unix.setsockopt_float flood Unix.SO_SNDTIMEO 10.;
        let chunk = Bytes.make 65536 'x' in
        let rec stream sent =
          if sent >= 8 lsl 20 then `Sent_all
          else
            match Unix.write flood chunk 0 (Bytes.length chunk) with
            | n -> stream (sent + n)
            | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
              ->
                `Disconnected
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                `Stuck
        in
        let outcome = stream 0 in
        let eof =
          match Unix.read flood chunk 0 1 with
          | 0 -> true
          | _ -> false
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              false
        in
        check_bool "flooding client disconnected" true
          (outcome = `Disconnected || eof);
        Unix.close flood;
        let conn = Client.connect_unix ~retry_for:10. path in
        let reported =
          match
            Client.request conn ~id:(Json.String "s") ~meth:"status"
              (Json.Obj [])
          with
          | Ok (Json.Obj fields) ->
              List.assoc_opt "long_line_disconnects" fields
          | Ok _ | Error _ -> None
        in
        (match
           Client.request conn ~id:(Json.String "q") ~meth:"shutdown"
             (Json.Obj [])
         with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "shutdown: %s" msg);
        Client.close conn;
        reported)
  in
  check (Alcotest.option Alcotest.string) "second client served, status \
     reports the disconnect" (Some "1")
    (Option.map Json.to_string reported);
  check_int "long-line disconnects" 1 outcome.Server.long_line_disconnects;
  check_int "no slow disconnects" 0 outcome.Server.slow_disconnects

let test_listen_unix_socket_hygiene () =
  (* A live daemon on the path: claiming it must fail loudly. *)
  let (), _ =
    with_server ~batch:2 (fun path ->
        (match Server.listen_unix path with
        | _ -> Alcotest.fail "claiming a live socket should fail"
        | exception Failure _ -> ());
        let conn = Client.connect_unix ~retry_for:10. path in
        (match
           Client.request conn ~id:(Json.String "s") ~meth:"shutdown"
             (Json.Obj [])
         with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "shutdown: %s" msg);
        Client.close conn)
  in
  (* A stale file from a dead listener: silently reclaimed. *)
  let path = fresh_path () in
  let dead = Server.listen_unix path in
  Unix.close dead;
  check_bool "stale socket file left behind" true (Sys.file_exists path);
  let reclaimed = Server.listen_unix path in
  Unix.close reclaimed;
  Sys.remove path

(* --- follower replication --- *)

let await_follower_height ~timeout conn target =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    match Client.status conn with
    | Ok (Json.Obj fields)
      when List.assoc_opt "height" fields = Some (Json.Int target) ->
        true
    | _ when Unix.gettimeofday () > deadline -> false
    | _ ->
        Unix.sleepf 0.02;
        poll ()
  in
  poll ()

(* A primary that has stopped serving but not yet closed its listener
   still completes connects into the listen backlog.  Such a link never
   answers the [catchup], so it must not count as a resync. *)
let test_unaccepted_connect_not_a_catchup () =
  let path_p = fresh_path () and path_f = fresh_path () in
  let listen_p = Server.listen_unix path_p in
  let listen_f = Server.listen_unix path_f in
  let follower =
    Domain.spawn (fun () ->
        Replica.run ~batch:4 ~retry_every:0.05
          ~primary:(Unix.ADDR_UNIX path_p) ~listen:listen_f (cfg ()))
  in
  let fconn = Client.connect_unix ~retry_for:10. path_f in
  let connected () =
    match Client.status fconn with
    | Ok (Json.Obj fields) -> List.assoc_opt "primary_connected" fields
    | _ -> None
  in
  let rec await want deadline =
    if connected () = Some (Json.Bool want) then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.02;
      await want deadline
    end
  in
  check_bool "connect landed in the backlog" true
    (await true (Unix.gettimeofday () +. 10.));
  Unix.close listen_p;
  check_bool "link dropped with the listener" true
    (await false (Unix.gettimeofday () +. 10.));
  (match
     Client.request fconn ~id:(Json.String "s") ~meth:"shutdown" (Json.Obj [])
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "follower shutdown: %s" msg);
  let f_out = Domain.join follower in
  check_int "no catchup counted" 0 f_out.Replica.catchups;
  Client.close fconn;
  Unix.close listen_f;
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path_p; path_f ]

let test_follower_replicates () =
  let path_p = fresh_path () and path_f = fresh_path () in
  let listen_p = Server.listen_unix path_p in
  let primary =
    Domain.spawn (fun () -> Server.serve ~batch:4 ~listen:listen_p (cfg ()))
  in
  let listen_f = Server.listen_unix path_f in
  let follower =
    Domain.spawn (fun () ->
        Replica.run ~batch:4 ~retry_every:0.05
          ~primary:(Unix.ADDR_UNIX path_p) ~listen:listen_f (cfg ()))
  in
  let reqs = List.init 12 (fun i -> (i, mixed_inputs i)) in
  let conn = Client.connect_unix ~retry_for:10. path_p in
  (match Client.run_load ~conns:[ conn ] reqs with
  | Ok r -> check_int "primary decided" 12 (List.length r.Client.decisions)
  | Error msg -> Alcotest.failf "load: %s" msg);
  let fconn = Client.connect_unix ~retry_for:10. path_f in
  (* Followers are read-only. *)
  (match
     Client.request fconn ~id:(Json.Int 0) ~meth:"submit"
       (Json.Obj
          [ ("subject", Json.Int 99);
            ("inputs", Json.List (List.map (fun i -> Json.Int (Oid.to_int i)) (mixed_inputs 0))) ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "follower accepted a submit");
  check_bool "follower converged" true
    (await_follower_height ~timeout:15. fconn 12);
  let primary_log =
    match Client.catchup ~from:0 conn with
    | Ok l -> l
    | Error msg -> Alcotest.failf "primary catchup: %s" msg
  in
  let follower_log =
    match Client.catchup ~from:0 fconn with
    | Ok l -> l
    | Error msg -> Alcotest.failf "follower catchup: %s" msg
  in
  check_int "replicated everything" 12 (List.length follower_log);
  check_bool "follower log == primary log" true (follower_log = primary_log);
  (match
     Client.request fconn ~id:(Json.String "s") ~meth:"shutdown" (Json.Obj [])
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "follower shutdown: %s" msg);
  let f_out = Domain.join follower in
  check_int "one catchup" 1 f_out.Replica.catchups;
  check_int "follower height" 12 f_out.Replica.height;
  (match
     Client.request conn ~id:(Json.String "s") ~meth:"shutdown" (Json.Obj [])
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "primary shutdown: %s" msg);
  let (_ : Server.outcome) = Domain.join primary in
  Client.close conn;
  Client.close fconn;
  Unix.close listen_p;
  Unix.close listen_f;
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path_p; path_f ]

(* Racy load: positions race across connections, so only the set of
   decided subjects is pinned — every submitted subject, exactly once. *)
let test_racy_load_subject_set () =
  let reqs = List.init 24 (fun i -> (i, mixed_inputs i)) in
  let (report : Client.report), outcome =
    with_server ~batch:4 (fun path ->
        let conns =
          List.init 3 (fun _ -> Client.connect_unix ~retry_for:10. path)
        in
        let r =
          match Client.run_load_racy ~shutdown:true ~conns reqs with
          | Ok r -> r
          | Error msg -> Alcotest.failf "run_load_racy: %s" msg
        in
        List.iter Client.close conns;
        r)
  in
  check_int "all accepted" 24 report.Client.submitted;
  check_bool "no errors" true (report.Client.errors = []);
  check_int "server height" 24 outcome.Server.height;
  check_bool "decided subjects == submitted subjects" true
    (Client.subjects_decided report = List.init 24 Fun.id)

(* --- connect-retry backoff --- *)

(* The retry pacing is a pure function of (seed, attempt): capped
   exponential slots (0.05s doubling to 1s) scaled by jitter in
   [0.5, 1.0).  Pin determinism, the envelope, monotone slot growth, the
   cap, and that distinct seeds actually de-synchronize. *)
let test_retry_backoff () =
  let slot attempt = Float.min (0.05 *. (2. ** float_of_int (attempt - 1))) 1.0 in
  (* deterministic: same (seed, attempt) -> same delay *)
  List.iter
    (fun attempt ->
      check (Alcotest.float 0.) "replayable"
        (Client.retry_delay ~seed:7 ~attempt)
        (Client.retry_delay ~seed:7 ~attempt))
    [ 1; 2; 3; 8; 40; 100 ];
  (* envelope: slot/2 <= delay < slot, hence never above the 1s cap *)
  List.iter
    (fun attempt ->
      let d = Client.retry_delay ~seed:11 ~attempt in
      let s = slot attempt in
      check_bool
        (Printf.sprintf "attempt %d in [slot/2, slot)" attempt)
        true
        (d >= (s /. 2.) -. 1e-9 && d < s);
      check_bool (Printf.sprintf "attempt %d capped" attempt) true (d <= 1.0))
    (List.init 64 (fun i -> i + 1));
  (* first slots grow: un-jittered lower bound of attempt k+2 exceeds the
     upper bound of attempt k while below the cap *)
  check_bool "slots double below the cap" true
    (slot 3 /. 2. >= slot 1 && slot 5 /. 2. >= slot 3);
  (* distinct seeds de-synchronize: two clients' schedules differ
     somewhere early *)
  let schedule seed =
    List.init 8 (fun i -> Client.retry_delay ~seed ~attempt:(i + 1))
  in
  check_bool "seeds de-synchronize" true (schedule 1 <> schedule 2);
  (* attempt 0 is rejected loudly *)
  Alcotest.check_raises "attempt 0"
    (Invalid_argument "Client.retry_delay: attempt must be >= 1") (fun () ->
      ignore (Client.retry_delay ~seed:1 ~attempt:0))

(* The retrying connect still works end-to-end: a client started before
   the socket exists connects (with backoff pacing) once the listener
   comes up. *)
let test_retry_connect_races_startup () =
  let path = fresh_path () in
  let listener =
    Domain.spawn (fun () ->
        Unix.sleepf 0.15;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 1;
        let c, _ = Unix.accept fd in
        Unix.close c;
        Unix.close fd)
  in
  let conn = Client.connect_unix ~retry_for:5.0 ~retry_seed:42 path in
  Domain.join listener;
  Client.close conn;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  check_bool "connected after startup race" true true

let () =
  Alcotest.run "serve"
    [
      ( "rpc",
        [
          Alcotest.test_case "parse" `Quick test_rpc_parse;
          Alcotest.test_case "decision line round-trip" `Quick
            test_rpc_decision_roundtrip;
          Alcotest.test_case "line split across reads" `Quick
            test_chan_split_line;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "load matches local engine" `Quick
            test_load_matches_local;
          Alcotest.test_case "snapshot restart and catch-up" `Quick
            test_snapshot_restart_catchup;
          Alcotest.test_case "truncated snapshot rejected" `Quick
            test_truncated_snapshot_rejected;
          Alcotest.test_case "bad requests get error responses" `Quick
            test_bad_requests_get_errors;
          Alcotest.test_case "server death surfaces as Error" `Quick
            test_server_death_is_an_error;
          Alcotest.test_case "out-of-order responses stashed" `Quick
            test_out_of_order_responses_stashed;
          Alcotest.test_case "stalled consumer disconnected" `Quick
            test_stalled_consumer_disconnected;
          Alcotest.test_case "unix socket hygiene" `Quick
            test_listen_unix_socket_hygiene;
          Alcotest.test_case "racy load decides the subject set" `Quick
            test_racy_load_subject_set;
          Alcotest.test_case "endless line disconnected" `Quick
            test_endless_line_disconnected;
        ] );
      ( "replica",
        [
          Alcotest.test_case "follower replicates the primary" `Quick
            test_follower_replicates;
          Alcotest.test_case "unaccepted connect is not a catchup" `Quick
            test_unaccepted_connect_not_a_catchup;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "retry delay schedule" `Quick test_retry_backoff;
          Alcotest.test_case "retrying connect races startup" `Quick
            test_retry_connect_races_startup;
        ] );
    ]
