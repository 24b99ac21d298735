(* Golden regression tests: small, fully deterministic experiment tables
   pinned as CSV.  Any behavioural drift in the protocols, the bounds
   arithmetic or the probability kernels shows up here as a diff. *)

module Table = Vv_prelude.Table

let check_csv name expected (t : Table.t) =
  Alcotest.(check string) name expected (Table.to_csv t)

let test_fig1a () =
  check_csv "fig1a"
    "profile,p1,p2,p3,p4,H(p),H0 (xN_G)\n\
     D1,0.70,0.10,0.10,0.10,1.3568,13.57\n\
     D2,0.55,0.25,0.10,0.10,1.6388,16.39\n\
     D3,0.40,0.30,0.20,0.10,1.8464,18.46\n\
     D4,0.25,0.25,0.25,0.25,2,20\n"
    (Vv_analysis.Exp_fig1.fig1a ())

let test_e5_firing () =
  check_csv "e5a"
    "delta_P,fires after k votes,paper says\n\
     0,7,7 (Section VII-A)\n\
     1,8,-\n"
    (Vv_analysis.Exp_examples.e5_firing ())

let test_e7_theorem10 () =
  check_csv "e7b"
    "t,lax (t-1) violates,strict (t) safe\n\
     1,yes,yes\n\
     2,yes,yes\n\
     3,yes,yes\n"
    (Vv_analysis.Exp_bounds.e7_theorem10 ())

let test_e10_third_option () =
  check_csv "e10b"
    "honest inputs,B_G,C_G,bound (t=3),N,term,valid\n\
     A*9 B*4      (hesitant voters all pick B),4,0,14,16,yes,yes\n\
     \"A*9 B*2 C,D  (two hesitant voters pick third options)\",2,2,12,16,yes,yes\n"
    (Vv_analysis.Exp_bounds.e10_third_option ())

let test_e11 () =
  check_csv "e11"
    "delta_P,quorum,decisive: term,decisive: valid,tie attack: term,tie \
     attack: tb-valid\n\
     0,N-t,yes,yes,yes,no\n\
     0,t+1,yes,yes,yes,no\n\
     1,N-t,yes,yes,yes,no\n\
     1,t+1,yes,yes,yes,no\n\
     2,N-t,yes,yes,no,yes\n\
     2,t+1,yes,yes,no,yes\n\
     3,N-t,no,yes,no,yes\n\
     3,t+1,no,yes,no,yes\n\
     4,N-t,no,yes,no,yes\n\
     4,t+1,no,yes,no,yes\n\
     5,N-t,no,yes,no,yes\n\
     5,t+1,no,yes,no,yes\n"
    (Vv_analysis.Exp_bounds.e11_judgment_ablation ())

(* A pinned end-to-end protocol run: outputs, round and message counts. *)
let test_pinned_run () =
  let r =
    Vv_core.Runner.simple ~protocol:Vv_core.Runner.Algo1
      ~strategy:Vv_core.Strategy.Collude_second ~t:1 ~f:1
      (List.map Vv_ballot.Option_id.of_int [ 0; 0; 0; 0; 0; 1 ])
  in
  (* Every honest node decides in round index 6, so 7 rounds execute
     (the trace's total_rounds counts executed rounds — see engine.ml's
     convention). *)
  Alcotest.(check int) "rounds" 7 r.Vv_core.Runner.rounds;
  Alcotest.(check int) "honest msgs" 126 r.Vv_core.Runner.honest_msgs;
  Alcotest.(check int) "byz msgs" 7 r.Vv_core.Runner.byz_msgs;
  Alcotest.(check (list (option int)))
    "decision rounds"
    (List.init 6 (fun _ -> Some 6))
    r.Vv_core.Runner.decision_rounds

let test_pinned_exact_cell () =
  let dist = Vv_dist.Profiles.(distribution d2) in
  let p = Vv_dist.Exact.pr_voting_validity dist ~t:2 in
  Alcotest.(check (float 1e-10)) "D2 t=2 cell" 0.5582 (Float.round (p *. 1e4) /. 1e4)

let () =
  Alcotest.run "golden"
    [
      ( "tables",
        [
          Alcotest.test_case "fig1a" `Quick test_fig1a;
          Alcotest.test_case "e5 firing point" `Quick test_e5_firing;
          Alcotest.test_case "e7 theorem 10" `Quick test_e7_theorem10;
          Alcotest.test_case "e10 third option" `Quick test_e10_third_option;
          Alcotest.test_case "e11 ablation" `Quick test_e11;
        ] );
      ( "runs",
        [
          Alcotest.test_case "pinned algo1 run" `Quick test_pinned_run;
          Alcotest.test_case "pinned fig1b cell" `Quick test_pinned_exact_cell;
        ] );
    ]
