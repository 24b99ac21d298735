(* Tests of the baseline (approximate-validity) protocols: median validity,
   interval validity, strong consensus, k-set consensus and approximate
   agreement — including the exactness failures that motivate the paper. *)

open Vv_sim
module B = Vv_baselines
module BR = Vv_analysis.Baseline_runner

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let cfg ?(seed = 0x8a5e) ~n ~t byz = Config.with_byzantine ~seed ~n ~t_max:t byz ()

(* One baseline run through the generic engine entry: the honest outputs
   in node-id order. *)
let exec p c ~inputs ?adversary () = fst (Engine.exec p c ~inputs ?adversary ())

let collude = BR.raw_collude

let all_equal = function
  | [] -> true
  | x :: rest -> List.for_all (( = ) x) rest

(* --- median validity --- *)

let test_median_no_faults () =
  (* 9 honest nodes with values 100..108: the exact median is 104. *)
  let c = cfg ~n:9 ~t:2 [] in
  let outs = exec (module B.Median_validity) c ~inputs:(fun id -> 100 + id) () in
  let outs = List.filter_map Fun.id outs in
  check_int "all decide" 9 (List.length outs);
  check_bool "agreement" true (all_equal outs);
  check_int "exact median without faults" 104 (List.hd outs)

let test_median_with_collusion_close_not_exact () =
  (* Two colluders flood the runner-up value; the agreed output must stay
     within t positions of the honest median (the [5] guarantee shape) but
     may miss it. *)
  let c = cfg ~n:11 ~t:2 [ 9; 10 ] in
  let outs =
    exec (module B.Median_validity) c ~inputs:(fun id -> 100 + min id 8)
      ~adversary:(collude ()) ()
  in
  let outs = List.filter_map Fun.id outs in
  check_bool "agreement" true (all_equal outs);
  let out = List.hd outs in
  (* honest values 100..108, median 104, t = 2 positions: [102, 106]. *)
  check_bool "within t positions of median" true (out >= 102 && out <= 106)

let test_median_outlier_immunity () =
  (* The t-trim discards Byzantine extremes entirely. *)
  let c = cfg ~n:11 ~t:2 [ 9; 10 ] in
  let module A = Vv_sim.Adversary in
  let outlier =
    A.named "outliers" (fun view ->
        if view.A.round <> 0 then []
        else
          List.concat_map
            (fun src ->
              List.init view.A.n (fun dst ->
                  { A.src; dst; msg = B.Exchange_ba.Raw 1_000_000 }))
            view.A.byzantine)
  in
  let outs =
    exec (module B.Median_validity) c ~inputs:(fun id -> 100 + min id 8)
      ~adversary:outlier ()
  in
  let outs = List.filter_map Fun.id outs in
  check_bool "agreement" true (all_equal outs);
  check_bool "outliers trimmed" true (List.hd outs >= 100 && List.hd outs <= 108)

(* --- interval validity --- *)

let test_interval_kth () =
  let c = cfg ~n:9 ~t:1 [] in
  let outs =
    exec (module B.Interval_validity) c
      ~inputs:(fun id -> { B.Interval_validity.value = 10 * (id + 1); k = 2 })
      ()
  in
  let outs = List.filter_map Fun.id outs in
  check_bool "agreement" true (all_equal outs);
  (* Values 10..90, t=1 trims to 20..80; k=2 -> 30. *)
  check_int "k-th smallest of trimmed" 30 (List.hd outs)

let test_interval_collusion_stays_in_interval () =
  let c = cfg ~n:11 ~t:2 [ 9; 10 ] in
  let outs =
    exec (module B.Interval_validity) c
      ~inputs:(fun id -> { B.Interval_validity.value = 100 + min id 8; k = 5 })
      ~adversary:(collude ()) ()
  in
  let outs = List.filter_map Fun.id outs in
  check_bool "agreement" true (all_equal outs);
  check_bool "inside honest range" true
    (List.hd outs >= 100 && List.hd outs <= 108)

(* --- strong consensus --- *)

let test_strong_decisive () =
  let c = cfg ~n:9 ~t:2 [ 7; 8 ] in
  (* 7 honest: six vote 3, one votes 5 — decisive. *)
  let outs =
    exec (module B.Strong_consensus) c
      ~inputs:(fun id -> if id = 6 then 5 else 3)
      ~adversary:(collude ()) ()
  in
  let outs = List.filter_map Fun.id outs in
  check_bool "agreement" true (all_equal outs);
  check_int "plurality survives" 3 (List.hd outs)

let test_strong_flipped_by_collusion () =
  (* The Section I failure: honest 4-vs-3 split, two colluders flip it.
     Strong validity still holds (5 is an honest input) but the output is
     NOT the honest plurality — the exactness gap Algorithm 1 closes. *)
  let c = cfg ~n:9 ~t:2 [ 7; 8 ] in
  let outs =
    exec (module B.Strong_consensus) c
      ~inputs:(fun id -> if id < 4 then 3 else 5)
      ~adversary:(collude ()) ()
  in
  let outs = List.filter_map Fun.id outs in
  check_bool "agreement" true (all_equal outs);
  check_int "honest plurality lost" 5 (List.hd outs)

(* --- k-set consensus --- *)

let test_kset_no_faults_single_value () =
  let c = Config.make ~n:6 ~t_max:2 () in
  let all =
    exec (module B.Kset) c ~inputs:(fun id -> { B.Kset.value = 10 + id; k = 2 }) ()
  in
  let outs = List.filter_map Fun.id all in
  check_int "all decide" 6 (List.length outs);
  check_int "one value without faults" 1 (B.Kset.distinct_outputs all);
  check_int "min wins" 10 (List.hd outs)

let test_kset_bounded_disagreement_under_crashes () =
  (* Crash nodes dying mid-broadcast can split the flood-min, but never
     into more than k distinct outputs. *)
  let faults =
    [|
      Fault.Crash { at_round = 0; deliver_to = [ 1 ] };
      Fault.Honest; Fault.Honest; Fault.Honest; Fault.Honest; Fault.Honest;
    |]
  in
  let c = Config.make ~n:6 ~t_max:2 ~faults () in
  let all =
    exec (module B.Kset) c ~inputs:(fun id -> { B.Kset.value = 10 + id; k = 2 }) ()
  in
  let distinct = B.Kset.distinct_outputs all in
  check_bool "at most k distinct outputs" true (distinct >= 1 && distinct <= 2);
  List.iter
    (fun o ->
      match o with
      | Some v -> check_bool "output is someone's input" true (v >= 10 && v <= 15)
      | None -> Alcotest.fail "kset must terminate")
    all

(* --- approximate agreement --- *)

let test_approx_converges () =
  let c = cfg ~n:9 ~t:2 [ 7; 8 ] in
  let outs =
    exec (module B.Approx) c
      ~inputs:(fun id -> { B.Approx.value = float_of_int (10 * id); rounds = 10 })
      ~adversary:(BR.approx_outlier ~value:1e9) ()
  in
  let spread = B.Approx.spread outs in
  check_bool "tight spread despite outliers" true (spread < 1.0);
  List.iter
    (fun o ->
      match o with
      | Some v -> check_bool "within honest hull" true (v >= 0.0 && v <= 60.0)
      | None -> Alcotest.fail "approx must terminate")
    outs

let test_approx_validation () =
  Alcotest.check_raises "rounds >= 1" (Invalid_argument "approx: rounds must be >= 1")
    (fun () ->
      let c = Config.make ~n:3 ~t_max:0 () in
      ignore
        (exec (module B.Approx) c
           ~inputs:(fun _ -> { B.Approx.value = 1.0; rounds = 0 })
           ()))

(* --- properties --- *)

let gen_values =
  QCheck.make
    ~print:(fun l -> Fmt.str "%a" Fmt.(Dump.list int) l)
    QCheck.Gen.(list_size (int_range 5 11) (int_range 0 50))

let prop_median_agreement =
  QCheck.Test.make ~count:40 ~name:"median baseline always agrees" gen_values
    (fun values ->
      let ng = List.length values in
      let t = 1 in
      let c = cfg ~n:(ng + t) ~t [ ng ] in
      let arr = Array.of_list values in
      let outs =
        exec (module B.Median_validity) c
          ~inputs:(fun id -> arr.(min id (ng - 1)))
          ~adversary:(collude ()) ()
      in
      all_equal (List.filter_map Fun.id outs))

let prop_strong_output_is_some_input =
  QCheck.Test.make ~count:40
    ~name:"strong baseline outputs someone's value" gen_values (fun values ->
      let ng = List.length values in
      let t = 1 in
      let c = cfg ~n:(ng + t) ~t [ ng ] in
      let arr = Array.of_list values in
      let outs =
        exec (module B.Strong_consensus) c
          ~inputs:(fun id -> arr.(min id (ng - 1)))
          ~adversary:(collude ()) ()
      in
      match List.filter_map Fun.id outs with
      | [] -> true
      | out :: _ -> List.mem out values)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_median_agreement; prop_strong_output_is_some_input ]

let () =
  Alcotest.run "baselines"
    [
      ( "median",
        [
          Alcotest.test_case "exact without faults" `Quick test_median_no_faults;
          Alcotest.test_case "close-not-exact under collusion" `Quick
            test_median_with_collusion_close_not_exact;
          Alcotest.test_case "outlier immunity" `Quick test_median_outlier_immunity;
        ] );
      ( "interval",
        [
          Alcotest.test_case "k-th smallest" `Quick test_interval_kth;
          Alcotest.test_case "collusion stays in interval" `Quick
            test_interval_collusion_stays_in_interval;
        ] );
      ( "strong",
        [
          Alcotest.test_case "decisive plurality survives" `Quick
            test_strong_decisive;
          Alcotest.test_case "thin plurality flipped (Section I)" `Quick
            test_strong_flipped_by_collusion;
        ] );
      ( "kset",
        [
          Alcotest.test_case "single value without faults" `Quick
            test_kset_no_faults_single_value;
          Alcotest.test_case "bounded disagreement under crashes" `Quick
            test_kset_bounded_disagreement_under_crashes;
        ] );
      ( "approx",
        [
          Alcotest.test_case "converges despite outliers" `Quick
            test_approx_converges;
          Alcotest.test_case "validation" `Quick test_approx_validation;
        ] );
      ("properties", qcheck_cases);
    ]
