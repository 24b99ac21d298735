(* Joint decision-making in a connected-vehicle cluster (Section I-B).

   A platoon of 14 vehicles approaching an obstacle must agree on one
   manoeuvre: BRAKE, SWERVE_LEFT, SWERVE_RIGHT or CONTINUE.  Each vehicle
   forms a preference from its own (noisy) sensors; up to t compromised
   vehicles collude to push the second-most-popular manoeuvre.  A log-based
   protocol (PBFT/Raft) would replicate a single leader's choice — here the
   fleet aggregates preferences with voting validity, and in the
   safety-critical variant refuses to act rather than act wrongly.

     dune exec examples/autonomous_fleet.exe *)

module Oid = Vv_ballot.Option_id
module Runner = Vv_core.Runner
module Strategy = Vv_core.Strategy
module Rng = Vv_prelude.Rng

let manoeuvres = [| "BRAKE"; "SWERVE_LEFT"; "SWERVE_RIGHT"; "CONTINUE" |]
let name_of o = manoeuvres.(Oid.to_int o)

(* Each vehicle senses the obstacle with noise: the true best action is
   BRAKE; misreadings vote for a swerve. *)
let sense rng =
  let r = Rng.float rng in
  if r < 0.70 then Oid.of_int 0
  else if r < 0.85 then Oid.of_int 1
  else if r < 0.95 then Oid.of_int 2
  else Oid.of_int 3

let pr_outcome label (r : Runner.outcome) =
  Fmt.pr "%s@." label;
  Fmt.pr "  decisions   : %a@."
    Fmt.(list ~sep:sp (option ~none:(any "-") (using name_of string)))
    r.Runner.outputs;
  Fmt.pr "  termination=%b agreement=%b voting-validity=%b safe=%b \
          rounds=%d@.@."
    r.Runner.termination r.Runner.agreement r.Runner.voting_validity
    r.Runner.voting_validity_tb r.Runner.rounds

let () =
  Fmt.pr "== Autonomous fleet: agreeing on a manoeuvre (14 vehicles, 2 \
          compromised) ==@.@.";
  let rng = Rng.create 2026 in
  let t = 2 in
  let honest = List.init 12 (fun _ -> sense rng) in
  Fmt.pr "sensor preferences: %a@.@."
    Fmt.(list ~sep:sp (using name_of string))
    honest;

  (* Standard BFT voting (Algorithm 1): correct whenever the sensing margin
     beats the tolerance bound. *)
  let r1 =
    Runner.simple ~protocol:Runner.Algo1 ~strategy:Strategy.Collude_second ~t
      ~f:t honest
  in
  pr_outcome "[Algorithm 1] plurality manoeuvre:" r1;

  (* Safety-critical variant (Algorithm 2): for actuation we must never
     execute a manoeuvre that is not the honest plurality.  If the margin
     is too thin, the fleet falls back to its fail-safe (full stop). *)
  let r2 =
    Runner.simple ~protocol:Runner.Algo2_sct ~strategy:Strategy.Collude_second
      ~t ~f:t honest
  in
  pr_outcome "[Algorithm 2 / SCT] safety-guaranteed manoeuvre:" r2;
  if not r2.Runner.termination then
    Fmt.pr "  -> SCT withheld a decision; fleet engages fail-safe stop.@.@.";

  (* Section V-B's remedy: vehicles re-sense / reconsider third options to
     widen the gap, then revote.  We simulate a second sensing pass with
     better optics (less noise). *)
  Fmt.pr "-- second sensing pass (fog lifted: cleaner margins) --@.@.";
  let sharper rng =
    let r = Rng.float rng in
    if r < 0.9 then Oid.of_int 0 else Oid.of_int 1
  in
  let honest2 = List.init 12 (fun _ -> sharper rng) in
  Fmt.pr "sensor preferences: %a@.@."
    Fmt.(list ~sep:sp (using name_of string))
    honest2;
  let r3 =
    Runner.simple ~protocol:Runner.Algo2_sct ~strategy:Strategy.Collude_second
      ~t ~f:t honest2
  in
  pr_outcome "[Algorithm 2 / SCT] after revote:" r3;

  (* Latency matters in a moving platoon: the incremental threshold decides
     as soon as enough votes are in, without waiting out the delay bound. *)
  let delay = Vv_sim.Delay.Uniform { lo = 1; hi = 4 } in
  let r4 =
    Runner.simple ~protocol:Runner.Algo1 ~strategy:Strategy.Collude_second
      ~delay ~t ~f:t honest2
  in
  let r5 =
    Runner.simple ~protocol:Runner.Algo3_incremental
      ~strategy:Strategy.Collude_second ~delay ~t ~f:t honest2
  in
  Fmt.pr "-- V2V latency (uniform 1..4 rounds) --@.";
  Fmt.pr "  Algorithm 1 decided in %d rounds; Algorithm 3 (incremental) in \
          %d rounds.@."
    r4.Runner.rounds r5.Runner.rounds
