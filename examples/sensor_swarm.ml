(* Plurality vs median on a sensor swarm (Section I's comparison).

   A swarm of 11 drones must decide which of four grid cells contains a
   fire (a categorical decision — voting validity territory) and also agree
   on a representative temperature reading (a continuous statistic — median
   validity territory).  Two drones are compromised.  This example shows
   each tool succeeding on its own turf and failing on the other's:

   - on the categorical question, Algorithm 1 returns the exact honest
     plurality while the median of cell indices is meaningless;
   - on the continuous question, Algorithm 1 has no plurality to find
     (readings are all distinct) while the median baseline lands within a
     sensor-noise margin of the true median despite Byzantine outliers.

     dune exec examples/sensor_swarm.exe *)

module Oid = Vv_ballot.Option_id
module Runner = Vv_core.Runner
module Strategy = Vv_core.Strategy
module Rng = Vv_prelude.Rng

let cells = [| "NW"; "NE"; "SW"; "SE" |]

let () =
  Fmt.pr "== Sensor swarm: 11 drones, 2 compromised ==@.@.";
  let rng = Rng.create 77 in
  let t = 2 in

  (* --- categorical: which cell is on fire? --- *)
  let honest_cells =
    List.init 9 (fun _ ->
        let r = Rng.float rng in
        if r < 0.67 then Oid.of_int 2 (* SW, the true fire cell *)
        else Oid.of_int (Rng.int rng 4))
  in
  Fmt.pr "fire-cell classifications: %a@."
    Fmt.(list ~sep:sp (using (fun o -> cells.(Oid.to_int o)) string))
    honest_cells;
  let r =
    Runner.simple ~protocol:Runner.Algo1 ~strategy:Strategy.Collude_second ~t
      ~f:t honest_cells
  in
  (match List.filter_map Fun.id r.Runner.outputs with
  | cell :: _ ->
      Fmt.pr "swarm dispatches to: %s (voting validity: %b)@.@."
        cells.(Oid.to_int cell) r.Runner.voting_validity
  | [] -> Fmt.pr "swarm could not decide (margin below tolerance)@.@.");

  (* --- continuous: agree on a representative temperature --- *)
  let readings = Array.init 9 (fun i -> 400 + (3 * i) + Rng.int rng 5) in
  Fmt.pr "temperature readings (honest): %a  + 2 Byzantine outliers@."
    Fmt.(array ~sep:sp int)
    readings;
  let sorted = Array.copy readings in
  Array.sort compare sorted;
  let true_median = sorted.(4) in
  let cfg = Vv_sim.Config.with_byzantine ~n:11 ~t_max:t [ 9; 10 ] () in
  let m, _ =
    Vv_sim.Engine.exec (module Vv_baselines.Median_validity) cfg
      ~inputs:(fun id -> readings.(min id 8))
      ~adversary:(Vv_analysis.Baseline_runner.raw_collude ()) ()
  in
  (match List.filter_map Fun.id m with
  | out :: _ ->
      Fmt.pr "median baseline agrees on: %d (true honest median %d, err %d)@."
        out true_median (abs (out - true_median))
  | [] -> Fmt.pr "median baseline failed@.");

  (* Algorithm 1 on the same continuous data: every reading distinct, no
     plurality exists, the protocol correctly refuses (or the adversary
     drags it to an arbitrary reading — never a *wrong plurality*, but
     useless as a statistic). *)
  let r2 =
    Runner.simple ~protocol:Runner.Algo2_sct ~strategy:Strategy.Collude_second
      ~t ~f:t
      (Array.to_list (Array.map Oid.of_int readings))
  in
  Fmt.pr
    "SCT voting on raw readings: terminated=%b (no plurality to find — the \
     safety-guaranteed protocol refuses to fabricate one)@."
    r2.Runner.termination;

  Fmt.pr
    "@.Moral: plurality consensus and median consensus answer different \
     questions; the paper gives exactness guarantees for the former.@."
