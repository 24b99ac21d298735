(* One-stop experiment runner: build a system specification, execute the
   chosen protocol against the chosen adversary, and classify the outcome
   against every property of Section III-C. *)

open Vv_sim
module Oid = Vv_ballot.Option_id
module Validity = Vv_ballot.Validity

module V_ds = Voting.Make (Vv_bb.Dolev_strong)
module V_eig = Voting.Make (Vv_bb.Eig)
module V_pk = Voting.Make (Vv_bb.Phase_king)
module V_plain = Voting.Make (Vv_bb.Plain)

type protocol =
  | Algo1  (** BFT voting, Inequality (3) *)
  | Algo2_sct  (** safety-guaranteed, Inequality (7) *)
  | Algo3_incremental  (** optimistic responsiveness, Inequality (14) *)
  | Algo4_local  (** local broadcast model, Inequality (15) *)
  | Cft  (** crash faults only; plain Phase 1 *)
  | Sct_incremental  (** Algorithm 2 with the Algorithm 3 trigger *)

let protocol_label = function
  | Algo1 -> "algo1"
  | Algo2_sct -> "algo2-sct"
  | Algo3_incremental -> "algo3-incr"
  | Algo4_local -> "algo4-local"
  | Cft -> "cft"
  | Sct_incremental -> "sct-incr"

let variant_of = function
  | Algo1 -> Variant.algo1
  | Algo2_sct -> Variant.algo2_sct
  | Algo3_incremental -> Variant.algo3_incremental
  | Algo4_local -> Variant.algo4_local
  | Cft -> Variant.cft
  | Sct_incremental -> Variant.sct_incremental

type spec = {
  n : int;
  t : int;
  inputs : Oid.t list;  (** length n; entries at Byzantine ids are ignored *)
  byzantine : Types.node_id list;
  crash : (Types.node_id * int * Types.node_id list) list;
      (** (node, crash round, recipients of its final broadcast) *)
  protocol : protocol;
  bb : Vv_bb.Bb.choice;  (** Phase-1 substrate for Algorithms 1-3 *)
  strategy : Strategy.t;
  tie : Vv_ballot.Tie_break.t;
  delay : Delay.t;
  network : Network.t;  (** chaos substrate; [Network.none] = faithful links *)
  retransmit : Retransmit.t option;
  seed : int;
  max_rounds : int;
  subject : int;
  speaker : Types.node_id;
  judgment_override : Variant.judgment option;
      (** replace the variant's local judgment condition delta_P — used by
          the Theorem 10 experiments to run SCT with delta_P < t *)
}

let spec ?(byzantine = []) ?(crash = []) ?(protocol = Algo1)
    ?(bb = Vv_bb.Bb.default) ?(strategy = Strategy.Passive)
    ?(tie = Vv_ballot.Tie_break.default) ?(delay = Delay.Synchronous)
    ?(network = Network.none) ?retransmit ?(seed = 0x5eed) ?(max_rounds = 200)
    ?(subject = 1) ?(speaker = 0) ?judgment_override ~n ~t inputs =
  if List.length inputs <> n then
    invalid_arg "Runner.spec: inputs must have length n";
  {
    n;
    t;
    inputs;
    byzantine;
    crash;
    protocol;
    bb;
    strategy;
    tie;
    delay;
    network;
    retransmit;
    seed;
    max_rounds;
    subject;
    speaker;
    judgment_override;
  }

let with_seed seed (s : spec) = { s with seed }

type outcome = {
  outputs : Oid.t option list;  (** honest nodes, node-id order *)
  honest_inputs : Oid.t list;
  termination : bool;
  agreement : bool;
  voting_validity : bool;  (** strict form, Definition III.3 *)
  voting_validity_tb : bool;
      (** tie-break-aware form; also safety-guaranteed admissibility
          (Definition V.1), which is the same predicate *)
  strong_validity : bool;
  stalled : bool;
  rounds : int;
  honest_msgs : int;
  byz_msgs : int;
  decision_rounds : int option list;
  trace : Vv_sim.Trace.snapshot;  (** per-round structured history *)
}

let config_of (s : spec) =
  let faults = Array.make s.n Fault.Honest in
  List.iter
    (fun id ->
      if id < 0 || id >= s.n then invalid_arg "Runner: byzantine id out of range";
      faults.(id) <- Fault.Byzantine)
    s.byzantine;
  List.iter
    (fun (id, at_round, deliver_to) ->
      if id < 0 || id >= s.n then invalid_arg "Runner: crash id out of range";
      if faults.(id) <> Fault.Honest then
        invalid_arg "Runner: node both Byzantine and crash";
      faults.(id) <- Fault.Crash { at_round; deliver_to })
    s.crash;
  let comm =
    match s.protocol with
    | Algo4_local -> Types.Local_broadcast
    | Algo1 | Algo2_sct | Algo3_incremental | Cft | Sct_incremental ->
        Types.Point_to_point
  in
  Config.make ~faults ~comm ~delay:s.delay ~network:s.network
    ?retransmit:s.retransmit ~max_rounds:s.max_rounds ~seed:s.seed ~n:s.n
    ~t_max:s.t ()

let outcome_of (s : spec) cfg (exec : Voting.exec) =
  let honest_inputs =
    List.filteri
      (fun id _ -> Fault.is_honest cfg.Config.faults.(id))
      s.inputs
  in
  let outputs = exec.Voting.outputs and trace = exec.Voting.trace in
  (* One tally of the honest inputs serves both voting-validity forms. *)
  let voting_validity, voting_validity_tb =
    Validity.voting_verdicts ~tie:s.tie ~honest_inputs ~outputs
  in
  {
    outputs;
    honest_inputs;
    termination = Validity.termination ~outputs;
    agreement = Validity.agreement ~outputs;
    voting_validity;
    voting_validity_tb;
    strong_validity = Validity.strong_validity ~honest_inputs ~outputs;
    stalled = trace.Trace.stalled;
    rounds = trace.Trace.total_rounds;
    honest_msgs = trace.Trace.honest_msgs;
    byz_msgs = trace.Trace.byz_msgs;
    decision_rounds = exec.Voting.decision_rounds;
    trace;
  }

let run_checked (s : spec) =
  let cfg = config_of s in
  let variant = Variant.with_tie s.tie (variant_of s.protocol) in
  let variant =
    match s.judgment_override with
    | None -> variant
    | Some judgment -> { variant with Variant.judgment }
  in
  let inputs = Array.of_list s.inputs in
  let preferences id = inputs.(id) in
  let exec =
    match s.protocol with
    | Algo4_local | Cft ->
        V_plain.execute_checked cfg ~variant ~speaker:s.speaker
          ~subject:s.subject ~preferences ~strategy:s.strategy
    | Algo1 | Algo2_sct | Algo3_incremental | Sct_incremental -> (
        match s.bb with
        | Vv_bb.Bb.Dolev_strong ->
            V_ds.execute_checked cfg ~variant ~speaker:s.speaker
              ~subject:s.subject ~preferences ~strategy:s.strategy
        | Vv_bb.Bb.Eig ->
            V_eig.execute_checked cfg ~variant ~speaker:s.speaker
              ~subject:s.subject ~preferences ~strategy:s.strategy
        | Vv_bb.Bb.Phase_king ->
            V_pk.execute_checked cfg ~variant ~speaker:s.speaker
              ~subject:s.subject ~preferences ~strategy:s.strategy)
  in
  Result.map (outcome_of s cfg) exec

let run (s : spec) =
  match run_checked s with
  | Ok o -> o
  | Error (`Invalid_adversary reason) ->
      raise (Vv_sim.Engine.Invalid_adversary reason)

(* Convenience: the paper's standard setup — honest inputs listed first,
   the last [f] nodes Byzantine, speaker honest node 0. *)
let simple_spec ?(protocol = Algo1) ?(strategy = Strategy.Collude_second)
    ?(bb = Vv_bb.Bb.default) ?(tie = Vv_ballot.Tie_break.default)
    ?(delay = Delay.Synchronous) ?(network = Network.none) ?retransmit
    ?(seed = 0x5eed) ?(max_rounds = 200) ~t ~f honest_inputs =
  let ng = List.length honest_inputs in
  let n = ng + f in
  let byzantine = List.init f (fun i -> ng + i) in
  (* Byzantine slots still need placeholder inputs. *)
  let filler = match honest_inputs with x :: _ -> x | [] -> Oid.of_int 0 in
  let inputs = honest_inputs @ List.init f (fun _ -> filler) in
  spec ~byzantine ~protocol ~bb ~strategy ~tie ~delay ~network ?retransmit
    ~seed ~max_rounds ~n ~t inputs

let simple ?protocol ?strategy ?bb ?tie ?delay ?network ?retransmit ?seed
    ?max_rounds ~t ~f honest_inputs =
  run
    (simple_spec ?protocol ?strategy ?bb ?tie ?delay ?network ?retransmit
       ?seed ?max_rounds ~t ~f honest_inputs)
