(* Typed aggregation of batch outcomes.

   A summary is a pure value: [empty] is the unit of [merge], and [merge]
   is associative and commutative (histograms are sorted assoc lists
   merged by key), so a batch summarises to the same bytes no matter how
   the executor chunks the work — the property the determinism test in
   test_exec.ml pins down. *)

module Table = Vv_prelude.Table
module Json = Vv_prelude.Json

type histogram = (int * int) list

type t = {
  total : int;
  terminated : int;
  stalled : int;
  invalid_adversary : int;
  successes : int;
  agreement_failures : int;
  validity_failures : int;
  strong_validity_failures : int;
  safety_inadmissible : int;
  honest_msgs : int;
  byz_msgs : int;
  round_hist : histogram;
  decide_round_hist : histogram;
  message_hist : histogram;
}

let empty =
  {
    total = 0;
    terminated = 0;
    stalled = 0;
    invalid_adversary = 0;
    successes = 0;
    agreement_failures = 0;
    validity_failures = 0;
    strong_validity_failures = 0;
    safety_inadmissible = 0;
    honest_msgs = 0;
    byz_msgs = 0;
    round_hist = [];
    decide_round_hist = [];
    message_hist = [];
  }

(* Merge two sorted assoc lists, adding counts on equal keys. *)
let merge_hist a b =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (ka, va) :: ta, (kb, vb) :: tb ->
        if ka < kb then (ka, va) :: go ta b
        else if kb < ka then (kb, vb) :: go a tb
        else (ka, va + vb) :: go ta tb
  in
  go a b

let bump key hist = merge_hist [ (key, 1) ] hist

let observe acc (result : (Vv_core.Runner.outcome, [ `Invalid_adversary of string ]) result) =
  match result with
  | Error (`Invalid_adversary _) ->
      { acc with total = acc.total + 1; invalid_adversary = acc.invalid_adversary + 1 }
  | Ok o ->
      let open Vv_core.Runner in
      let decide_round_hist =
        List.fold_left
          (fun h r -> match r with Some r -> bump r h | None -> h)
          acc.decide_round_hist o.decision_rounds
      in
      {
        total = acc.total + 1;
        terminated = (acc.terminated + if o.termination then 1 else 0);
        stalled = (acc.stalled + if o.stalled then 1 else 0);
        invalid_adversary = acc.invalid_adversary;
        successes =
          (acc.successes + if o.termination && o.voting_validity_tb then 1 else 0);
        agreement_failures =
          (acc.agreement_failures + if o.agreement then 0 else 1);
        validity_failures =
          (acc.validity_failures + if o.voting_validity then 0 else 1);
        strong_validity_failures =
          (acc.strong_validity_failures + if o.strong_validity then 0 else 1);
        safety_inadmissible =
          (acc.safety_inadmissible + if o.voting_validity_tb then 0 else 1);
        honest_msgs = acc.honest_msgs + o.honest_msgs;
        byz_msgs = acc.byz_msgs + o.byz_msgs;
        round_hist = bump o.rounds acc.round_hist;
        decide_round_hist;
        message_hist = bump (o.honest_msgs + o.byz_msgs) acc.message_hist;
      }

let merge a b =
  {
    total = a.total + b.total;
    terminated = a.terminated + b.terminated;
    stalled = a.stalled + b.stalled;
    invalid_adversary = a.invalid_adversary + b.invalid_adversary;
    successes = a.successes + b.successes;
    agreement_failures = a.agreement_failures + b.agreement_failures;
    validity_failures = a.validity_failures + b.validity_failures;
    strong_validity_failures =
      a.strong_validity_failures + b.strong_validity_failures;
    safety_inadmissible = a.safety_inadmissible + b.safety_inadmissible;
    honest_msgs = a.honest_msgs + b.honest_msgs;
    byz_msgs = a.byz_msgs + b.byz_msgs;
    round_hist = merge_hist a.round_hist b.round_hist;
    decide_round_hist = merge_hist a.decide_round_hist b.decide_round_hist;
    message_hist = merge_hist a.message_hist b.message_hist;
  }

let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let success_rate t = rate t.successes t.total
let stall_rate t = rate t.stalled t.total
let termination_rate t = rate t.terminated t.total

let mean_of_hist hist =
  let count, weighted =
    List.fold_left (fun (c, w) (k, v) -> (c + v, w + (k * v))) (0, 0) hist
  in
  rate weighted count

let mean_rounds t = mean_of_hist t.round_hist
let mean_messages t = mean_of_hist t.message_hist

let to_table ?(title = "batch summary") t =
  let tbl =
    Table.create ~title
      ~headers:[ "metric"; "value" ]
      ~aligns:[ Table.Left; Table.Right ]
      ()
  in
  let add name value = Table.add_row tbl [ name; value ] in
  add "runs" (Table.icell t.total);
  add "successes" (Table.icell t.successes);
  add "success rate" (Table.fcell (success_rate t));
  add "terminated" (Table.icell t.terminated);
  add "stalled" (Table.icell t.stalled);
  add "stall rate" (Table.fcell (stall_rate t));
  add "invalid adversary" (Table.icell t.invalid_adversary);
  add "agreement failures" (Table.icell t.agreement_failures);
  add "validity failures" (Table.icell t.validity_failures);
  add "strong validity failures" (Table.icell t.strong_validity_failures);
  add "safety inadmissible" (Table.icell t.safety_inadmissible);
  add "honest messages" (Table.icell t.honest_msgs);
  add "byzantine messages" (Table.icell t.byz_msgs);
  add "mean rounds" (Table.fcell (mean_rounds t));
  add "mean messages" (Table.fcell (mean_messages t));
  tbl

let to_csv ?title t = Table.to_csv (to_table ?title t)

let to_json t =
  Json.Obj
    [
      ("total", Json.Int t.total);
      ("terminated", Json.Int t.terminated);
      ("stalled", Json.Int t.stalled);
      ("invalid_adversary", Json.Int t.invalid_adversary);
      ("successes", Json.Int t.successes);
      ("agreement_failures", Json.Int t.agreement_failures);
      ("validity_failures", Json.Int t.validity_failures);
      ("strong_validity_failures", Json.Int t.strong_validity_failures);
      ("safety_inadmissible", Json.Int t.safety_inadmissible);
      ("success_rate", Json.Float (success_rate t));
      ("stall_rate", Json.Float (stall_rate t));
      ("honest_msgs", Json.Int t.honest_msgs);
      ("byz_msgs", Json.Int t.byz_msgs);
      ("round_histogram", Json.of_histogram t.round_hist);
      ("decide_round_histogram", Json.of_histogram t.decide_round_hist);
      ("message_histogram", Json.of_histogram t.message_hist);
    ]

let pp ppf t = Table.pp ppf (to_table t)
