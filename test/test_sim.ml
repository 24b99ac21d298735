(* Tests of the simulation engine: delivery, crash filtering, communication
   model enforcement, delays, determinism and stall reporting. *)

open Vv_sim

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* A toy flood protocol: broadcast the input at round 0, record every
   arrival with its round, decide on the full log at [decide_round]. *)
module Flood = struct
  type input = int
  type msg = int
  type output = (int * int * int) list (* (arrival round, src, value) *)
  type state = { log : output; decided : output option }

  let name = "flood"
  let decide_round = 6
  let equal_msg = Int.equal

  let init (_ : Protocol.ctx) v ~outbox =
    Outbox.broadcast outbox v;
    { log = []; decided = None }

  let step (_ : Protocol.ctx) st ~round ~inbox ~outbox:_ =
    let log =
      st.log
      @ List.rev (Inbox.fold (fun acc src v -> (round, src, v) :: acc) [] inbox)
    in
    let decided =
      if round >= decide_round && st.decided = None then Some log else st.decided
    in
    { log; decided }

  let output st = st.decided
  let phase st = if st.decided = None then "flood" else "done"
  let inert _ = false
end

module E = Engine.Make (Flood)

let values res =
  (* Per honest node: sorted (src, value) pairs seen. *)
  List.map
    (fun out ->
      match out with
      | None -> []
      | Some log -> List.sort compare (List.map (fun (_, s, v) -> (s, v)) log))
    (E.honest_outputs res)

let test_full_delivery () =
  let cfg = Config.make ~n:4 ~t_max:1 () in
  let res = E.run_exn cfg ~inputs:(fun id -> 100 + id) () in
  let expected = List.init 4 (fun i -> (i, 100 + i)) in
  List.iter
    (fun seen -> check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
        "every node sees every input (incl. self)" expected seen)
    (values res);
  check_int "honest messages" 16 res.trace.Trace.honest_msgs;
  check_bool "not stalled" false res.trace.Trace.stalled

let test_crash_mid_broadcast () =
  (* Node 2 crashes while broadcasting at round 0: only node 0 receives its
     vote — the Lemma 4 scenario where X_i <> X_G. *)
  let faults =
    [| Fault.Honest; Fault.Honest; Fault.Crash { at_round = 0; deliver_to = [ 0 ] } |]
  in
  let cfg = Config.make ~n:3 ~t_max:1 ~faults ()
  in
  let res = E.run_exn cfg ~inputs:(fun id -> 100 + id) () in
  (match values res with
  | [ seen0; seen1 ] ->
      check_bool "node0 got crash vote" true (List.mem (2, 102) seen0);
      check_bool "node1 missed crash vote" false (List.mem (2, 102) seen1)
  | _ -> Alcotest.fail "expected two honest outputs");
  check_int "f counted" 1 (Config.faulty_count cfg)

let test_crashed_node_silent_after () =
  (* A node crashing at round 0 sends nothing in later rounds; with an empty
     deliver_to it is silent from the start. *)
  let faults =
    [| Fault.Honest; Fault.Crash { at_round = 0; deliver_to = [] }; Fault.Honest |]
  in
  let cfg = Config.make ~n:3 ~t_max:1 ~faults () in
  let res = E.run_exn cfg ~inputs:(fun id -> id) () in
  List.iter
    (fun seen -> check_bool "no votes from crashed" false (List.mem_assoc 1 seen))
    (values res)

let test_byzantine_equivocation_p2p_allowed () =
  let cfg = Config.with_byzantine ~n:4 ~t_max:1 [ 3 ] () in
  let adversary =
    Adversary.named "equivocate" (fun view ->
        if view.Adversary.round <> 0 then []
        else
          List.init view.Adversary.n (fun dst ->
              { Adversary.src = 3; dst; msg = 900 + dst }))
  in
  let res = E.run_exn cfg ~inputs:(fun id -> id) ~adversary () in
  (match values res with
  | seen0 :: _ -> check_bool "per-recipient message" true (List.mem (3, 900) seen0)
  | [] -> Alcotest.fail "no outputs");
  check_int "byz messages counted" 4 res.trace.Trace.byz_msgs

let test_local_broadcast_blocks_equivocation () =
  let cfg =
    Config.with_byzantine ~comm:Types.Local_broadcast ~n:4 ~t_max:1 [ 3 ] ()
  in
  let adversary =
    Adversary.named "equivocate" (fun view ->
        if view.Adversary.round <> 0 then []
        else
          List.init view.Adversary.n (fun dst ->
              { Adversary.src = 3; dst; msg = 900 + dst }))
  in
  (* The result-returning run reports the violation as an Error... *)
  (match E.run cfg ~inputs:(fun id -> id) ~adversary () with
  | Error (`Invalid_adversary _) -> ()
  | Ok _ ->
      Alcotest.fail "equivocation should be rejected under local broadcast");
  (* ...and run_exn raises. *)
  (try
     ignore (E.run_exn cfg ~inputs:(fun id -> id) ~adversary ());
     Alcotest.fail "equivocation should be rejected under local broadcast"
   with Engine.Invalid_adversary _ -> ());
  (* Partial broadcast (not reaching everyone) is rejected too. *)
  let partial =
    Adversary.named "partial" (fun view ->
        if view.Adversary.round <> 0 then []
        else [ { Adversary.src = 3; dst = 0; msg = 7 } ])
  in
  match E.run cfg ~inputs:(fun id -> id) ~adversary:partial () with
  | Error (`Invalid_adversary _) -> ()
  | Ok _ ->
      Alcotest.fail "partial broadcast should be rejected under local broadcast"

let test_local_broadcast_identical_ok () =
  let cfg =
    Config.with_byzantine ~comm:Types.Local_broadcast ~n:4 ~t_max:1 [ 3 ] ()
  in
  let adversary =
    Adversary.broadcast_each_round ~name:"same" ~when_round:(fun r -> r = 0)
      (fun ~src:_ _view -> Some 777)
  in
  let res = E.run_exn cfg ~inputs:(fun id -> id) ~adversary () in
  List.iter
    (fun seen -> check_bool "all received 777" true (List.mem (3, 777) seen))
    (values res)

let test_local_broadcast_two_distinct_broadcasts_ok () =
  (* Honest nodes may emit several envelopes per round, each broadcast to
     the whole neighbourhood; the adversary validator must grant Byzantine
     nodes the same right.  The old validator required all of a sender's
     messages in a round to be identical, conflating two distinct uniform
     broadcasts with per-recipient equivocation — found by the exhaustive
     checker on Vote_and_propose scripts. *)
  let cfg =
    Config.with_byzantine ~comm:Types.Local_broadcast ~n:4 ~t_max:1 [ 3 ] ()
  in
  let adversary =
    Adversary.named "two-broadcasts" (fun view ->
        if view.Adversary.round <> 0 then []
        else
          List.concat_map
            (fun msg ->
              List.map
                (fun dst -> { Adversary.src = 3; dst; msg })
                (view.Adversary.reach 3))
            [ 701; 702 ])
  in
  let res = E.run_exn cfg ~inputs:(fun id -> id) ~adversary () in
  List.iter
    (fun seen ->
      check_bool "first broadcast delivered" true (List.mem (3, 701) seen);
      check_bool "second broadcast delivered" true (List.mem (3, 702) seen))
    (values res)

let test_adversary_from_honest_rejected () =
  let cfg = Config.with_byzantine ~n:4 ~t_max:1 [ 3 ] () in
  let adversary =
    Adversary.named "impersonate" (fun view ->
        if view.Adversary.round <> 0 then []
        else [ { Adversary.src = 0; dst = 1; msg = 1 } ])
  in
  match E.run cfg ~inputs:(fun id -> id) ~adversary () with
  | Error (`Invalid_adversary reason) ->
      check_bool "reason names the node" true
        (String.length reason > 0)
  | Ok _ -> Alcotest.fail "sending from honest id must be rejected"

let test_uniform_delay_bounds () =
  let cfg = Config.make ~n:5 ~t_max:1 ~delay:(Delay.Uniform { lo = 1; hi = 3 }) () in
  let res = E.run_exn cfg ~inputs:(fun id -> id) () in
  List.iter
    (fun out ->
      match out with
      | None -> Alcotest.fail "undecided"
      | Some log ->
          check_int "all messages arrive" 5 (List.length log);
          List.iter
            (fun (round, _, _) ->
              check_bool "arrival within bounds" true (round >= 1 && round <= 3))
            log)
    (E.honest_outputs res)

let test_determinism () =
  let run () =
    let cfg =
      Config.make ~n:6 ~t_max:1 ~delay:(Delay.Uniform { lo = 1; hi = 4 }) ~seed:99 ()
    in
    E.run_exn cfg ~inputs:(fun id -> id * 3) ()
  in
  let a = run () and b = run () in
  check_bool "same outputs" true (E.honest_outputs a = E.honest_outputs b);
  check_int "same rounds" a.trace.Trace.total_rounds b.trace.Trace.total_rounds

(* A protocol that never decides must be reported as stalled at
   max_rounds. *)
module Mute = struct
  type input = unit
  type msg = unit
  type output = unit
  type state = unit

  let name = "mute"
  let equal_msg () () = true
  let init _ () ~outbox:_ = ()
  let step _ () ~round:_ ~inbox:_ ~outbox:_ = ()
  let output () = None
  let phase () = "mute"
  let inert () = true
end

let test_stall_reported () =
  let module EM = Engine.Make (Mute) in
  let cfg = Config.make ~n:3 ~t_max:0 ~max_rounds:10 () in
  let res = EM.run_exn cfg ~inputs:(fun _ -> ()) () in
  check_bool "stalled" true res.EM.trace.Trace.stalled;
  check_int "ran to cutoff" 10 res.EM.trace.Trace.total_rounds

(* Regression for the max_rounds off-by-one: the old loop ran
   [0 .. max_rounds] — max_rounds + 1 rounds — so a stalled run recorded
   max_rounds + 1 executed rounds in its trace, and the round count the
   result reported disagreed with it.  The fixed convention (engine.ml
   header) is: at most [max_rounds] rounds execute, the trace's
   [total_rounds] counts them, and a run cut off there is [stalled]. *)
let test_max_rounds_is_a_round_budget () =
  let module EM = Engine.Make (Mute) in
  let budget = 7 in
  let cfg = Config.make ~n:2 ~t_max:0 ~max_rounds:budget () in
  let res = EM.run_exn cfg ~inputs:(fun _ -> ()) () in
  check_int "exactly max_rounds rounds executed" budget
    res.EM.trace.Trace.total_rounds;
  check_bool "stalled at the budget" true res.EM.trace.Trace.stalled;
  (* Every recorded round index stays inside 0 .. max_rounds - 1. *)
  List.iter
    (fun (r : Trace.round_record) ->
      check_bool "round index within budget" true
        (r.Trace.round >= 0 && r.Trace.round < budget))
    (Trace.rounds res.EM.trace)

let test_unicast_under_local_broadcast_rejected () =
  let module Uni = struct
    type input = unit
    type msg = unit
    type output = unit
    type state = unit

    let name = "uni"
    let equal_msg () () = true
    let init _ () ~outbox = Outbox.unicast outbox 0 ()
    let step _ () ~round:_ ~inbox:_ ~outbox:_ = ()
    let output () = Some ()
    let phase () = "uni"
    let inert () = false
  end in
  let module EU = Engine.Make (Uni) in
  let cfg = Config.make ~comm:Types.Local_broadcast ~n:3 ~t_max:0 () in
  try
    ignore (EU.run_exn cfg ~inputs:(fun _ -> ()) ());
    Alcotest.fail "honest unicast must be rejected under local broadcast"
  with Invalid_argument _ -> ()

(* --- topology-aware delivery --- *)

let ring4 = [| [ 1; 3 ]; [ 0; 2 ]; [ 1; 3 ]; [ 0; 2 ] |]

let test_topology_broadcast_reaches_neighbours () =
  let cfg = Config.make ~topology:ring4 ~n:4 ~t_max:0 () in
  check (Alcotest.list Alcotest.int) "reach of 0" [ 0; 1; 3 ] (Config.reach cfg 0);
  let res = E.run_exn cfg ~inputs:(fun id -> 100 + id) () in
  (match values res with
  | seen0 :: seen1 :: _ ->
      check_bool "0 hears neighbour 1" true (List.mem (1, 101) seen0);
      check_bool "0 does not hear non-neighbour 2" false (List.mem (2, 102) seen0);
      check_bool "0 hears itself" true (List.mem (0, 100) seen0);
      check_bool "1 hears 2" true (List.mem (2, 102) seen1)
  | _ -> Alcotest.fail "outputs");
  (* 4 nodes x 3 recipients each. *)
  check_int "message count" 12 res.trace.Trace.honest_msgs

let test_topology_validation () =
  Alcotest.check_raises "symmetry"
    (Invalid_argument "Config.make: topology must be symmetric") (fun () ->
      ignore (Config.make ~topology:[| [ 1 ]; [] |] ~n:2 ~t_max:0 ()));
  Alcotest.check_raises "self loop"
    (Invalid_argument "Config.make: topology self-loop") (fun () ->
      ignore (Config.make ~topology:[| [ 0 ] |] ~n:1 ~t_max:0 ()));
  Alcotest.check_raises "length"
    (Invalid_argument "Config.make: topology must have length n") (fun () ->
      ignore (Config.make ~topology:[| [] |] ~n:2 ~t_max:0 ()))

let test_topology_local_broadcast_neighbourhood () =
  (* Under local broadcast with a topology, a Byzantine node must cover
     exactly its neighbourhood: all-nodes coverage is now invalid too. *)
  let cfg =
    Config.with_byzantine ~comm:Types.Local_broadcast ~topology:ring4 ~n:4
      ~t_max:1 [ 2 ] ()
  in
  let to_all =
    Adversary.named "to-all" (fun view ->
        if view.Adversary.round <> 0 then []
        else List.init 4 (fun dst -> { Adversary.src = 2; dst; msg = 9 }))
  in
  (match E.run cfg ~inputs:(fun id -> id) ~adversary:to_all () with
  | Error (`Invalid_adversary _) -> ()
  | Ok _ -> Alcotest.fail "beyond-neighbourhood broadcast must be rejected");
  let to_neighbourhood =
    Adversary.broadcast_each_round ~name:"ok" ~when_round:(fun r -> r = 0)
      (fun ~src:_ _ -> Some 9)
  in
  let res = E.run_exn cfg ~inputs:(fun id -> id) ~adversary:to_neighbourhood () in
  check_int "neighbourhood size messages" 3 res.trace.Trace.byz_msgs

let test_config_validation () =
  Alcotest.check_raises "n positive" (Invalid_argument "Config.make: n must be positive")
    (fun () -> ignore (Config.make ~n:0 ~t_max:0 ()));
  Alcotest.check_raises "faults arity"
    (Invalid_argument "Config.make: faults array must have length n") (fun () ->
      ignore (Config.make ~n:3 ~t_max:0 ~faults:[| Fault.Honest |] ()));
  let cfg = Config.with_byzantine ~n:5 ~t_max:1 [ 4 ] () in
  check_bool "within tolerance" true (Config.within_tolerance cfg);
  let cfg2 = Config.with_byzantine ~n:5 ~t_max:1 [ 3; 4 ] () in
  check_bool "over tolerance" false (Config.within_tolerance cfg2);
  check (Alcotest.list Alcotest.int) "honest ids" [ 0; 1; 2 ] (Config.honest_ids cfg2)

let test_delay_validation () =
  Alcotest.check_raises "fixed >= 1" (Invalid_argument "Delay.Fixed: delay must be >= 1")
    (fun () -> Delay.validate (Delay.Fixed 0));
  Alcotest.check_raises "uniform bounds"
    (Invalid_argument "Delay.Uniform: need 1 <= lo <= hi") (fun () ->
      Delay.validate (Delay.Uniform { lo = 2; hi = 1 }));
  Alcotest.check_raises "async fairness >= 1"
    (Invalid_argument "Delay.Asynchronous: fairness must be >= 1") (fun () ->
      Delay.validate (Delay.Asynchronous { fairness = 0; schedule = None }));
  Alcotest.check_raises "gst >= 0"
    (Invalid_argument "Delay.Eventually_synchronous: gst must be >= 0")
    (fun () ->
      Delay.validate
        (Delay.Eventually_synchronous { gst = -1; bound = 2; schedule = None }));
  Alcotest.check_raises "gst bound >= 1"
    (Invalid_argument "Delay.Eventually_synchronous: bound must be >= 1")
    (fun () ->
      Delay.validate
        (Delay.Eventually_synchronous { gst = 3; bound = 0; schedule = None }));
  check (Alcotest.option Alcotest.int) "bound sync" (Some 1) (Delay.bound Delay.Synchronous);
  check (Alcotest.option Alcotest.int) "bound uniform" (Some 4)
    (Delay.bound (Delay.Uniform { lo = 2; hi = 4 }));
  (* The synchrony axis: asynchrony exposes no protocol-visible bound at
     all; under GST the bound is the eventual one, while the engine-facing
     [max_delay] shrinks toward it as the send round approaches gst. *)
  let async = Delay.Asynchronous { fairness = 5; schedule = None } in
  check (Alcotest.option Alcotest.int) "bound async" None (Delay.bound async);
  check (Alcotest.option Alcotest.int) "max_delay async = fairness" (Some 5)
    (Delay.max_delay async ~round:7);
  let es = Delay.Eventually_synchronous { gst = 4; bound = 2; schedule = None } in
  check (Alcotest.option Alcotest.int) "bound gst = eventual bound" (Some 2)
    (Delay.bound es);
  check (Alcotest.option Alcotest.int) "max_delay pre-GST" (Some 6)
    (Delay.max_delay es ~round:0);
  check (Alcotest.option Alcotest.int) "max_delay at GST-1" (Some 3)
    (Delay.max_delay es ~round:3);
  check (Alcotest.option Alcotest.int) "max_delay post-GST" (Some 2)
    (Delay.max_delay es ~round:9)

let test_in_flight_view () =
  (* The rushing adversary can inspect the scheduler's pending deliveries.
     Under Fixed 2 delay the round-0 broadcasts are still in flight
     (arrival round 2) when the adversary acts in round 1, and have been
     drained by the time it acts in round 2.  Flood only sends at init, so
     the expected pending set is exactly the two honest broadcasts. *)
  let seen = ref [] in
  let adversary =
    Adversary.named "observer" (fun view ->
        seen := (view.Adversary.round, view.Adversary.in_flight ()) :: !seen;
        [])
  in
  let cfg =
    Config.with_byzantine ~delay:(Delay.Fixed 2) ~max_rounds:8 ~n:3 ~t_max:1
      [ 2 ] ()
  in
  ignore (E.run_exn cfg ~inputs:(fun id -> id) ~adversary ());
  let at r = List.assoc r !seen in
  let triples = Alcotest.(list (triple int int int)) in
  (* Round 0: the adversary acts before any send has been routed. *)
  check triples "nothing in flight at round 0" [] (at 0);
  check triples "round-0 broadcasts pending at round 1"
    [ (2, 0, 0); (2, 0, 1); (2, 0, 2); (2, 1, 0); (2, 1, 1); (2, 1, 2) ]
    (at 1);
  check triples "drained once delivered" [] (at 2)

(* --- run-context reuse --- *)

(* Every run borrows its domain's reusable context (engine buffers,
   payload tables, trace builder).  Interleaving very different runs in
   one domain — a wide run, runs under Uniform delays and with
   retransmission (deliveries stay in flight across rounds, so the
   payload table never flips), a run aborted mid-round by an invalid
   adversary, and a run nested inside an adversary's [act] — must give
   each the result it gets alone in a freshly spawned domain. *)
module Runner = Vv_core.Runner

let render_outcome = function
  | Error (`Invalid_adversary reason) -> "invalid: " ^ reason
  | Ok (o : Runner.outcome) ->
      Fmt.str "%a|%a|%s|%s"
        Fmt.(Dump.list (Dump.option Vv_ballot.Option_id.pp))
        o.Runner.outputs
        Fmt.(Dump.list (Dump.option int))
        o.Runner.decision_rounds
        (Trace.to_csv o.Runner.trace)
        (Vv_prelude.Json.to_string (Trace.to_json o.Runner.trace))

let render_flood = function
  | Error (`Invalid_adversary reason) -> "invalid: " ^ reason
  | Ok res ->
      Fmt.str "%a|%s|%s"
        Fmt.(Dump.list (Dump.list (Dump.pair int int)))
        (values res) (Trace.to_csv res.E.trace)
        (Vv_prelude.Json.to_string (Trace.to_json res.E.trace))

let phase_king_64 () =
  let o = Vv_ballot.Option_id.of_int in
  render_outcome
    (Runner.run_checked
       (Runner.simple_spec ~protocol:Runner.Algo1 ~bb:Vv_bb.Bb.Phase_king
          ~strategy:Vv_core.Strategy.Collude_second ~t:21 ~f:21
          (List.init 43 (fun i -> o (if i < 30 then 0 else 1 + (i mod 2))))))

let eig_chaos_spec =
  Runner.spec ~byzantine:[ 3 ] ~bb:Vv_bb.Bb.Eig
    ~strategy:Vv_core.Strategy.Collude_second
    ~network:(Network.make ~drop:0.2 ~duplicate:0.1 ~jitter:1 ~seed:11 ())
    ~retransmit:Retransmit.default ~seed:5 ~n:4 ~t:1
    (List.map Vv_ballot.Option_id.of_int [ 0; 0; 1; 0 ])

let eig_chaos () = render_outcome (Runner.run_checked eig_chaos_spec)

let honest_inputs l = List.map Vv_ballot.Option_id.of_int l

let phase_king_uniform_spec =
  Runner.simple_spec ~bb:Vv_bb.Bb.Phase_king
    ~delay:(Delay.Uniform { lo = 1; hi = 3 })
    ~seed:17 ~t:2 ~f:2
    (honest_inputs [ 0; 1; 0; 2; 0; 1; 0 ])

let phase_king_uniform () =
  render_outcome (Runner.run_checked phase_king_uniform_spec)

let dolev_strong_retransmit_spec =
  Runner.simple_spec ~bb:Vv_bb.Bb.Dolev_strong
    ~network:(Network.make ~drop:0.3 ~seed:23 ())
    ~retransmit:Retransmit.default ~seed:29 ~t:2 ~f:2
    (honest_inputs [ 1; 1; 0; 2; 1 ])

let dolev_strong_retransmit () =
  render_outcome (Runner.run_checked dolev_strong_retransmit_spec)

(* Legal Byzantine traffic for two rounds, then a send impersonating
   honest node 0.  The slow links leave deliveries in flight at the
   abort, which the next run in the domain must not see. *)
let invalid_mid_round () =
  let cfg =
    Config.with_byzantine ~delay:(Delay.Fixed 3) ~n:4 ~t_max:1 [ 3 ] ()
  in
  let adversary =
    Adversary.named "impersonate-late" (fun view ->
        match view.Adversary.round with
        | 0 | 1 -> List.init 4 (fun dst -> { Adversary.src = 3; dst; msg = 7 })
        | 2 -> [ { Adversary.src = 0; dst = 1; msg = 1 } ]
        | _ -> [])
  in
  render_flood (E.run cfg ~inputs:(fun id -> id) ~adversary ())

(* A flood run whose adversary runs [eig_chaos] from inside [act]. *)
let nested () =
  let inner = ref "" in
  let cfg = Config.with_byzantine ~n:4 ~t_max:1 [ 3 ] () in
  let adversary =
    Adversary.named "nesting" (fun view ->
        if view.Adversary.round <> 1 then []
        else begin
          inner := eig_chaos ();
          List.init 4 (fun dst -> { Adversary.src = 3; dst; msg = 9 })
        end)
  in
  let outer = render_flood (E.run cfg ~inputs:(fun id -> id) ~adversary ()) in
  outer ^ "\n" ^ !inner

let test_context_reuse_invisible () =
  let runs =
    [
      ("phase-king n=64", phase_king_64);
      ("eig n=4 chaos+retransmit", eig_chaos);
      ("phase-king n=9 uniform delay", phase_king_uniform);
      ("dolev-strong n=7 retransmit", dolev_strong_retransmit);
      ("invalid adversary mid-round", invalid_mid_round);
      ("nested run", nested);
    ]
  in
  let fresh =
    List.map (fun (name, run) -> (name, Domain.join (Domain.spawn run))) runs
  in
  (* The scenarios exercise what they claim to. *)
  (match Runner.run_checked eig_chaos_spec with
  | Ok o ->
      let tr = o.Runner.trace in
      check_bool "chaos run drops and retransmits" true
        (tr.Trace.dropped_msgs > 0 && tr.Trace.retrans_msgs > 0)
  | Error _ -> Alcotest.fail "chaos run rejected");
  (match Runner.run_checked dolev_strong_retransmit_spec with
  | Ok o ->
      check_bool "retransmit run drops and retransmits" true
        (o.Runner.trace.Trace.dropped_msgs > 0
        && o.Runner.trace.Trace.retrans_msgs > 0)
  | Error _ -> Alcotest.fail "retransmit run rejected");
  let starts prefix name = String.starts_with ~prefix (List.assoc name fresh) in
  check_bool "aborted mid-round" true
    (starts "invalid: " "invalid adversary mid-round");
  check_bool "nested run recorded" true
    (String.ends_with ~suffix:(eig_chaos ()) (List.assoc "nested run" fresh));
  List.iter
    (fun _pass ->
      List.iter
        (fun (name, run) ->
          check Alcotest.string name (List.assoc name fresh) (run ()))
        (runs @ List.rev runs))
    [ 1; 2 ]

(* --- payload lifetime --- *)

(* The engine writes each message once into a payload table and
   deliveries carry its index.  The tables must not keep payloads alive
   beyond their use: during a run, a table is cleared at the flip, once
   no delivery refers to it; at the end of a run, normal or aborted,
   both are cleared.  [Boxed] sends a freshly allocated block per send,
   each tracked in a weak array with its send round: three broadcasts
   per node at round 0, one per later round, so a table refilled without
   being cleared still holds round-0 payloads past the new sends. *)
type boxed_msg = { from : int; round : int }

let tracked : boxed_msg Weak.t = Weak.create 4096
let tracked_round = Array.make 4096 0
let ntracked = ref 0

let track ~round m =
  Weak.set tracked !ntracked (Some m);
  tracked_round.(!ntracked) <- round;
  incr ntracked;
  m

(* Tracked payloads still reachable, among those sent at or before
   [round], after a full major collection. *)
let live_upto round =
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to !ntracked - 1 do
    if tracked_round.(i) <= round && Weak.check tracked i then incr live
  done;
  !live

module Boxed = struct
  type input = unit
  type msg = boxed_msg
  type output = int
  type state = { mutable sum : int; mutable finished : bool }

  let name = "boxed"
  let equal_msg a b = a.from = b.from && a.round = b.round
  let last_round = 10
  let probe_round = 8

  (* Payloads sent two or more rounds before [probe_round] still
     reachable mid-run; -1 until probed. *)
  let stale_mid_run = ref (-1)

  let send ~me ~round outbox =
    Outbox.broadcast outbox (track ~round { from = me; round })

  let init (ctx : Protocol.ctx) () ~outbox =
    for _ = 1 to 3 do
      send ~me:ctx.me ~round:0 outbox
    done;
    { sum = 0; finished = false }

  let step (ctx : Protocol.ctx) st ~round ~inbox ~outbox =
    if ctx.me = 0 && round = probe_round then
      stale_mid_run := live_upto (round - 2);
    for i = 0 to Inbox.length inbox - 1 do
      st.sum <- st.sum + (Inbox.msg inbox i).round
    done;
    if round < last_round then send ~me:ctx.me ~round outbox
    else st.finished <- true;
    st

  let output st = if st.finished then Some st.sum else None
  let phase _ = "boxed"
  let inert _ = false
end

module EB = Engine.Make (Boxed)

(* One tracked broadcast per node and round, then at [last_round] a burst
   of twenty each, and a decision.  Under [Fixed 2] deliveries are always
   in flight, so the payload table never flips: the burst grows it while
   the last delivering round's inbox view still holds the array it had
   before, which only the view's detach at the end of the run lets go. *)
module Burst = struct
  include Boxed

  let name = "burst"
  let last_round = 4

  let step (ctx : Protocol.ctx) st ~round ~inbox ~outbox =
    for i = 0 to Inbox.length inbox - 1 do
      st.sum <- st.sum + (Inbox.msg inbox i).round
    done;
    let sends = if round < last_round then 1 else 20 in
    for _ = 1 to sends do
      send ~me:ctx.me ~round outbox
    done;
    if round = last_round then st.finished <- true;
    st
end

module EBurst = Engine.Make (Burst)

(* Phase 1's embedders, whose batch-boundary steps decode each shared
   window once into a per-domain inbox: Voting over Phase-King and over
   Dolev-Strong, and Phase-King run on its own. *)
module PK = Vv_bb.Phase_king
module Pof_pk = Vv_bb.Protocol_of.Make (PK)
module E_pof = Engine.Make (Pof_pk)

(* Outputs, decision rounds and the trace of one engine run. *)
let render_run outputs decision_round trace =
  Fmt.str "%a|%a|%s|%s"
    Fmt.(Dump.array (Dump.option string))
    outputs
    Fmt.(Dump.array (Dump.option int))
    decision_round (Trace.to_csv trace)
    (Vv_prelude.Json.to_string (Trace.to_json trace))

let n9_faults ?crash byzantine =
  Array.init 9 (fun id ->
      if List.mem id byzantine then Fault.Byzantine
      else
        match crash with
        | Some (c, at_round, deliver_to) when c = id ->
            Fault.Crash { at_round; deliver_to }
        | Some _ | None -> Fault.Honest)

(* Algorithm 1 over [Sub] on n = 9, t = 2, nodes 7 and 8 Byzantine, the
   subject [subject] at [speaker]. *)
module Voting_of (Sub : Vv_bb.Bb_intf.S) = struct
  include Vv_core.Voting.Make (Sub)

  let render ~speaker ~subject ~adversary delay =
    let cfg =
      Config.make ~faults:(n9_faults [ 7; 8 ]) ~delay ~n:9 ~t_max:2 ()
    in
    let inputs id =
      {
        variant = Vv_core.Variant.algo1;
        speaker;
        subject;
        preference = Vv_ballot.Option_id.of_int (if id < 5 then 0 else 1);
      }
    in
    match E.run cfg ~inputs ~adversary () with
    | Error (`Invalid_adversary reason) -> "invalid: " ^ reason
    | Ok res ->
        render_run
          (Array.map (Option.map Vv_ballot.Option_id.to_string) res.E.outputs)
          res.E.decision_round res.E.trace
end

module V_pk = Voting_of (PK)
module V_ds = Voting_of (Vv_bb.Dolev_strong)

(* Any payload block, tracked like [track]'s. *)
let tracked_any : Obj.t Weak.t = Weak.create 4096
let ntracked_any = ref 0

let track_any m =
  Weak.set tracked_any !ntracked_any (Some (Obj.repr m));
  incr ntracked_any

let live_any () =
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to !ntracked_any - 1 do
    if Weak.check tracked_any i then incr live
  done;
  !live

let test_payloads_do_not_outlive_run () =
  ntracked := 0;
  Boxed.stale_mid_run := -1;
  let cfg = Config.make ~n:4 ~t_max:1 ~max_rounds:12 () in
  ignore (EB.run_exn cfg ~inputs:(fun _ -> ()) ());
  check_bool "payloads tracked" true (!ntracked > 40);
  check_int "no payload two rounds old is reachable mid-run" 0
    !Boxed.stale_mid_run;
  check_int "no payload reachable after a run" 0 (live_upto max_int);
  (* Abort with deliveries in flight: legal Byzantine traffic on slow
     links, then a send impersonating honest node 0. *)
  ntracked := 0;
  let cfg =
    Config.with_byzantine ~delay:(Delay.Fixed 3) ~n:4 ~t_max:1 [ 3 ] ()
  in
  let adversary =
    Adversary.named "impersonate-late" (fun view ->
        let round = view.Adversary.round in
        match round with
        | 0 | 1 ->
            List.init 4 (fun dst ->
                {
                  Adversary.src = 3;
                  dst;
                  msg = track ~round { from = 3; round };
                })
        | 2 ->
            [
              {
                Adversary.src = 0;
                dst = 1;
                msg = track ~round { from = 0; round };
              };
            ]
        | _ -> [])
  in
  (match EB.run cfg ~inputs:(fun _ -> ()) ~adversary () with
  | Error (`Invalid_adversary _) -> ()
  | Ok _ -> Alcotest.fail "impersonation accepted");
  check_bool "aborted run tracked payloads" true (!ntracked > 10);
  check_int "no payload reachable after an aborted run" 0 (live_upto max_int);
  (* The payload table grows during the last delivering round. *)
  ntracked := 0;
  let cfg = Config.make ~delay:(Delay.Fixed 2) ~n:4 ~t_max:1 () in
  let res = EBurst.run_exn cfg ~inputs:(fun _ -> ()) () in
  check_bool "burst run decides at its burst" true
    (Array.for_all (( = ) (Some Burst.last_round)) res.EBurst.decision_round);
  check_bool "burst outgrows the table" true (!ntracked > 64);
  check_int "no payload reachable after a burst" 0 (live_upto max_int);
  (* Voting over Phase-King on the row path: every Phase-1 message the
     honest nodes send, and the sub-machine message inside it, which the
     shared decode held. *)
  ntracked_any := 0;
  let rows = ref 0 and sent = ref 0 in
  let adversary =
    Adversary.named "tracker" (fun view ->
        for i = 0 to view.Adversary.sent_len - 1 do
          incr sent;
          if view.Adversary.sent_dst i = Outbox.broadcast_dst then incr rows;
          match view.Adversary.sent_msg i with
          | V_pk.Prepare m as p ->
              track_any p;
              track_any m
          | V_pk.Vote _ | V_pk.Propose _ -> ()
        done;
        [])
  in
  let cfg = Config.with_byzantine ~n:9 ~t_max:2 [ 8 ] () in
  let inputs id =
    {
      V_pk.variant = Vv_core.Variant.algo1;
      speaker = 0;
      subject = 3;
      preference = Vv_ballot.Option_id.of_int (if id < 6 then 0 else 1);
    }
  in
  let res = V_pk.E.run_exn cfg ~inputs ~adversary () in
  check_bool "voting run decides" true
    (List.for_all Option.is_some (V_pk.E.honest_outputs res));
  check_bool "every send travelled as a row" true (!rows > 0 && !rows = !sent);
  check_int "no decoded payload reachable after a run" 0 (live_any ())

(* --- row delivery --- *)

(* On the complete graph, with reliable links and a Synchronous or Fixed
   delay, a broadcast from a sender that reaches everyone travels through
   the engine as one row.  A schedule assigning the same constant delay
   ([Adversarial]) takes the per-recipient path instead; nothing
   observable may differ between the two: outputs, decision rounds and
   the trace. *)
let per_recipient_delay d =
  Delay.Adversarial { bound = d; schedule = (fun ~round:_ ~src:_ ~dst:_ -> d) }

let outcome spec delay = render_outcome (Runner.run_checked (spec delay))

(* Phase 1 on n = 9, t = 2, Byzantine node 8 the sender, which
   equivocates at round 0 (bottom to nodes 0-3, 2 to the rest); at round
   1 nodes 7 and 8 send every node a phase-0 Val of 2, which tips the
   plurality from bottom to 2 (so Voting gets a subject and decides).  Under
   [Fixed 2] those Vals arrive at round 3, between batch boundaries, so
   they wait in each node's batch buffer while the next boundary's
   window holds only honest rows: that window may not be taken as the
   whole batch.  [wrap] makes a Phase-King message the protocol's. *)
let pk_equivocate wrap =
  Adversary.named "pk-equivocate" (fun view ->
      match view.Adversary.round with
      | 0 ->
          List.init 9 (fun dst ->
              let value = if dst < 4 then Vv_bb.Bb_intf.bottom else 2 in
              { Adversary.src = 8; dst; msg = wrap (PK.Val { phase = -1; value }) })
      | 1 ->
          List.concat_map
            (fun src ->
              List.init 9 (fun dst ->
                  {
                    Adversary.src;
                    dst;
                    msg = wrap (PK.Val { phase = 0; value = 2 });
                  }))
            [ 7; 8 ]
      | _ -> [])

(* [Protocol_of (Phase_king)] from [sender] with [value]. *)
let pof_run ?crash ?(byzantine = [ 8 ]) ?(adversary = Adversary.passive)
    ~sender ~value delay =
  let cfg = Config.make ~faults:(n9_faults ?crash byzantine) ~delay ~n:9 ~t_max:2 () in
  let inputs id =
    {
      Vv_bb.Protocol_of.sender;
      value = (if id = sender then Some value else None);
    }
  in
  match E_pof.run cfg ~inputs ~adversary () with
  | Error (`Invalid_adversary reason) -> "invalid: " ^ reason
  | Ok res ->
      render_run
        (Array.map (Option.map string_of_int) res.E_pof.outputs)
        res.E_pof.decision_round res.E_pof.trace

(* An outer run whose adversary, at round [at], runs [inner] from inside
   [act]: the nested run's fresh context must not reissue a stamp the
   outer run goes on to use.  Run in a fresh domain, whose contexts are
   all new.  For [Protocol_of (Phase_king)] at round 2t + 1, the outer
   run's next round is round A of the last phase, as was the nested
   run's last stamped count. *)
let nested ~at ~outer ~inner delay =
  Domain.join
    (Domain.spawn (fun () ->
         let inside = ref "" in
         let adversary =
           Adversary.named "nesting" (fun view ->
               if view.Adversary.round = at then inside := inner delay;
               [])
         in
         let out = outer adversary delay in
         out ^ "\n" ^ !inside))

let fixed2 = (Delay.Fixed 2, per_recipient_delay 2)

let pof_nested =
  nested ~at:5
    ~outer:(fun adversary d -> pof_run ~adversary ~sender:0 ~value:6 d)
    ~inner:(fun d -> pof_run ~sender:1 ~value:3 d)

(* Algorithm 1 ([render] of a [Voting_of]) nesting another run, whose
   speaker and subject differ. *)
let voting_nested render ~at =
  nested ~at
    ~outer:(fun adversary d -> render ~speaker:0 ~subject:4 ~adversary d)
    ~inner:(fun d -> render ~speaker:1 ~subject:9 ~adversary:Adversary.passive d)

(* Each case: a name, its (row path, per-recipient path) delays, and a
   run rendered to a string. *)
let row_cases =
  let sync = (Delay.Synchronous, per_recipient_delay 1) in
  let o = Vv_ballot.Option_id.of_int in
  let voting_pk ?crash ~subject delay =
    Runner.spec ~byzantine:[ 8 ] ?crash ~bb:Vv_bb.Bb.Phase_king
      ~strategy:Vv_core.Strategy.Collude_second ~subject ~delay ~n:9 ~t:2
      (honest_inputs [ 0; 1; 0; 2; 0; 1; 0; 0; 0 ])
  in
  [
    ( "phase-king n=64 collude-second",
      sync,
      outcome (fun delay ->
          Runner.simple_spec ~protocol:Runner.Algo1 ~bb:Vv_bb.Bb.Phase_king
            ~strategy:Vv_core.Strategy.Collude_second ~delay ~t:21 ~f:21
            (List.init 43 (fun i -> o (if i < 30 then 0 else 1 + (i mod 2))))) );
    ("phase-king n=9", sync, outcome (fun d -> voting_pk ~subject:5 d));
    ( "phase-king n=9 fixed 2",
      fixed2,
      outcome (fun d -> voting_pk ~subject:6 d) );
    ( "phase-king n=9 crash in phase 1",
      sync,
      outcome (fun d -> voting_pk ~crash:[ (6, 3, [ 0; 2; 4 ]) ] ~subject:7 d)
    );
    ( "phase-king equivocating speaker",
      sync,
      V_pk.render ~speaker:8 ~subject:0
        ~adversary:(pk_equivocate (fun m -> V_pk.Prepare m)) );
    ( "phase-king equivocating speaker, fixed 2",
      fixed2,
      V_pk.render ~speaker:8 ~subject:0
        ~adversary:(pk_equivocate (fun m -> V_pk.Prepare m)) );
    ( "dolev-strong n=7",
      sync,
      outcome (fun delay ->
          Runner.spec ~byzantine:[ 6 ] ~bb:Vv_bb.Bb.Dolev_strong
            ~strategy:Vv_core.Strategy.Collude_second ~subject:3 ~delay ~n:7
            ~t:2
            (honest_inputs [ 1; 0; 1; 1; 2; 1; 0 ])) );
    ( "dolev-strong n=7 mid-broadcast crash",
      sync,
      outcome (fun delay ->
          Runner.spec ~byzantine:[ 5 ] ~crash:[ (6, 1, [ 0; 2 ]) ]
            ~bb:Vv_bb.Bb.Dolev_strong ~delay ~n:7 ~t:2
            (honest_inputs [ 0; 0; 0; 1; 1; 2; 1 ])) );
    ( "dolev-strong fixed 2",
      fixed2,
      outcome (fun delay ->
          Runner.simple_spec ~bb:Vv_bb.Bb.Dolev_strong ~delay ~seed:29 ~t:2
            ~f:2
            (honest_inputs [ 1; 1; 0; 2; 1 ])) );
    ( "eig n=4",
      sync,
      outcome (fun delay ->
          Runner.spec ~byzantine:[ 3 ] ~bb:Vv_bb.Bb.Eig ~delay ~n:4 ~t:1
            (honest_inputs [ 0; 0; 1; 0 ])) );
    ( "plain phase 1 (cft) with a crash",
      sync,
      outcome (fun delay ->
          Runner.spec ~crash:[ (4, 1, [ 0; 2 ]) ] ~protocol:Runner.Cft ~delay
            ~n:5 ~t:1
            (honest_inputs [ 0; 0; 0; 1; 1 ])) );
    ( "algorithm 4 local broadcast",
      sync,
      outcome (fun delay ->
          Runner.simple_spec ~protocol:Runner.Algo4_local
            ~strategy:Vv_core.Strategy.Collude_second ~delay ~t:3 ~f:3
            (honest_inputs [ 0; 0; 0; 0; 0; 1 ])) );
    ("protocol_of phase-king", sync, fun d -> pof_run ~sender:0 ~value:4 d);
    ("protocol_of phase-king fixed 2", fixed2, fun d -> pof_run ~sender:0 ~value:5 d);
    ( "protocol_of phase-king crash in phase 1",
      sync,
      fun d -> pof_run ~crash:(6, 3, [ 0; 2; 4 ]) ~sender:0 ~value:7 d );
    ( "protocol_of phase-king equivocating sender",
      sync,
      fun d ->
        pof_run ~byzantine:[ 7; 8 ] ~adversary:(pk_equivocate Fun.id)
          ~sender:8 ~value:0 d );
    ( "protocol_of phase-king equivocating sender, fixed 2",
      fixed2,
      fun d ->
        pof_run ~byzantine:[ 7; 8 ] ~adversary:(pk_equivocate Fun.id)
          ~sender:8 ~value:0 d );
    ("protocol_of phase-king nested run", sync, pof_nested);
    ("protocol_of phase-king nested run, fixed 2", fixed2, pof_nested);
    ("phase-king nested run", sync, voting_nested V_pk.render ~at:5);
    ("phase-king nested run, fixed 2", fixed2, voting_nested V_pk.render ~at:10);
    ("dolev-strong nested run", sync, voting_nested V_ds.render ~at:2);
  ]

let test_rows_equal_per_recipient () =
  List.iter
    (fun (name, (rows, per_recipient), run) ->
      let got = run rows in
      check_bool (name ^ ": runs") false
        (String.starts_with ~prefix:"invalid: " got);
      check Alcotest.string name (run per_recipient) got)
    row_cases

(* The row path is really taken: in round 0 every honest node broadcasts
   once, which the rushing adversary sees as one entry per send (a row,
   [sent_dst] = [Outbox.broadcast_dst]) on the default configuration and
   as one entry per delivery when the path is forced per recipient. *)
let test_rows_taken () =
  let observe delay =
    let seen = ref [] in
    let adversary =
      Adversary.named "observer" (fun view ->
          if view.Adversary.round = 0 then
            seen := List.init view.Adversary.sent_len view.Adversary.sent_dst;
          [])
    in
    let cfg = Config.with_byzantine ~delay ~n:4 ~t_max:1 [ 3 ] () in
    let res = E.run cfg ~inputs:(fun id -> id) ~adversary () in
    (!seen, render_flood res)
  in
  let row_dsts, rows = observe Delay.Synchronous in
  let dsts, per_recipient = observe (per_recipient_delay 1) in
  let ints = Alcotest.(list int) in
  check ints "one row per send" (List.init 3 (fun _ -> Outbox.broadcast_dst))
    row_dsts;
  check ints "one entry per delivery" [ 0; 1; 2; 3; 0; 1; 2; 3; 0; 1; 2; 3 ]
    dsts;
  check Alcotest.string "same run" per_recipient rows

(* The stamp of a shared window: the same, and >= 0, for every recipient
   of an all-row round, fresh in each such round, and -1 in a mixed round
   (here the adversary's round-1 plans share round 2's bucket with the
   honest rows) and on the per-recipient path.  Every node broadcasts in
   every round and records what its inbox showed. *)
module Stamped = struct
  type input = unit
  type msg = int
  type output = unit
  type state = unit

  let name = "stamped"
  let equal_msg = Int.equal
  let seen = ref []
  let init (_ : Protocol.ctx) () ~outbox = Outbox.broadcast outbox 0

  let step (ctx : Protocol.ctx) () ~round ~inbox ~outbox =
    seen := (round, ctx.me, Inbox.stamp inbox) :: !seen;
    Outbox.broadcast outbox round

  let output () = None
  let phase () = "stamped"
  let inert () = false
end

module E_stamped = Engine.Make (Stamped)

let test_inbox_stamps () =
  let stamps delay =
    Stamped.seen := [];
    let adversary =
      Adversary.named "round-1 plan" (fun view ->
          if view.Adversary.round = 1 then
            [ { Adversary.src = 3; dst = 0; msg = 7 } ]
          else [])
    in
    let cfg = Config.with_byzantine ~delay ~max_rounds:4 ~n:4 ~t_max:1 [ 3 ] () in
    ignore (E_stamped.run_exn cfg ~inputs:(fun _ -> ()) ~adversary ());
    fun round ->
      List.sort compare
        (List.filter_map
           (fun (r, me, stamp) -> if r = round then Some (me, stamp) else None)
           !Stamped.seen)
  in
  let at = stamps Delay.Synchronous in
  let shared round =
    match at round with
    | (_, s) :: _ as l ->
        check_bool (Printf.sprintf "round %d: one stamp, >= 0" round) true
          (s >= 0 && List.for_all (fun (_, s') -> s' = s) l);
        check_int (Printf.sprintf "round %d: every node" round) 3
          (List.length l);
        s
    | [] -> Alcotest.fail "no recipients"
  in
  let s1 = shared 1 and s3 = shared 3 in
  check_bool "a fresh stamp per shared window" true (s1 <> s3);
  let pairs = Alcotest.(list (pair int int)) in
  check pairs "mixed round: -1" [ (0, -1); (1, -1); (2, -1) ] (at 2);
  let per_recipient = stamps (per_recipient_delay 1) in
  List.iter
    (fun round ->
      check pairs "per-recipient path: -1" [ (0, -1); (1, -1); (2, -1) ]
        (per_recipient round))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "sim"
    [
      ( "delivery",
        [
          Alcotest.test_case "full delivery" `Quick test_full_delivery;
          Alcotest.test_case "crash mid-broadcast (Lemma 4)" `Quick
            test_crash_mid_broadcast;
          Alcotest.test_case "crashed node silent" `Quick
            test_crashed_node_silent_after;
          Alcotest.test_case "uniform delay bounds" `Quick test_uniform_delay_bounds;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "p2p equivocation allowed" `Quick
            test_byzantine_equivocation_p2p_allowed;
          Alcotest.test_case "local broadcast blocks equivocation (Prop 6)"
            `Quick test_local_broadcast_blocks_equivocation;
          Alcotest.test_case "local broadcast identical ok" `Quick
            test_local_broadcast_identical_ok;
          Alcotest.test_case "local broadcast: two distinct broadcasts ok"
            `Quick test_local_broadcast_two_distinct_broadcasts_ok;
          Alcotest.test_case "impersonating honest rejected" `Quick
            test_adversary_from_honest_rejected;
          Alcotest.test_case "in-flight view" `Quick test_in_flight_view;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic given seed" `Quick test_determinism;
          Alcotest.test_case "run-context reuse is invisible" `Quick
            test_context_reuse_invisible;
          Alcotest.test_case "payloads do not outlive their run" `Quick
            test_payloads_do_not_outlive_run;
          Alcotest.test_case "stall reported" `Quick test_stall_reported;
          Alcotest.test_case "max_rounds is a round budget" `Quick
            test_max_rounds_is_a_round_budget;
          Alcotest.test_case "unicast rejected under local broadcast" `Quick
            test_unicast_under_local_broadcast_rejected;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "topology broadcast" `Quick
            test_topology_broadcast_reaches_neighbours;
          Alcotest.test_case "topology validation" `Quick test_topology_validation;
          Alcotest.test_case "topology local-broadcast neighbourhood" `Quick
            test_topology_local_broadcast_neighbourhood;
          Alcotest.test_case "delay validation" `Quick test_delay_validation;
        ] );
      ( "rows",
        [
          Alcotest.test_case "row path equals per-recipient path" `Quick
            test_rows_equal_per_recipient;
          Alcotest.test_case "row path taken" `Quick test_rows_taken;
          Alcotest.test_case "inbox stamps a shared window" `Quick
            test_inbox_stamps;
        ] );
    ]
