(* Allocation regression tests for the engine hot path.

   The zero-allocation message API (Outbox emission, indexed Inbox views
   over the per-round delivery arena, int-packed scheduling) promises that
   a steady-state round allocates a bounded, small number of minor-heap
   words regardless of traffic: buffers are warm after the first few
   rounds, deliveries are packed ints (a meta word and a payload index),
   RNG draws are unboxed, and the per-round cost reduces to the trace
   record plus whatever the protocol itself allocates.

   [Gc.minor_words] is deterministic for a fixed code path, unlike
   wall-clock on a noisy host, so these tests pin the budget exactly: the
   marginal words/round of a long run over a shorter one of the same
   configuration.  A regression that re-introduces per-delivery allocation
   (boxing deliveries, rebuilding inbox lists, per-round views) multiplies
   the marginal cost by the traffic volume and trips the budget at once. *)

open Vv_sim

(* A chatty protocol that never decides and never goes inert: every node
   broadcasts an immediate int each round and scans its inbox.  16
   deliveries per round at n=4 — enough traffic that any per-delivery
   allocation is visible — with zero protocol-side allocation. *)
module Chatty = struct
  type input = int
  type msg = int
  type output = int
  type state = { mutable seen : int }

  let name = "chatty"
  let equal_msg = Int.equal

  let init (_ : Protocol.ctx) v ~outbox =
    Outbox.broadcast outbox v;
    { seen = 0 }

  let step (_ : Protocol.ctx) st ~round:_ ~inbox ~outbox =
    let acc = ref st.seen in
    for i = 0 to Inbox.length inbox - 1 do
      acc := !acc lxor Inbox.msg inbox i lxor Inbox.src inbox i
    done;
    st.seen <- !acc;
    Outbox.broadcast outbox st.seen;
    st

  let output _ = None
  let phase _ = "chat"
  let inert _ = false
end

module E = Engine.Make (Chatty)

let minor_words_of_run ~max_rounds =
  let cfg = Config.make ~n:4 ~t_max:1 ~max_rounds () in
  let w0 = Gc.minor_words () in
  let res = E.run_exn cfg ~inputs:(fun id -> id) () in
  let w1 = Gc.minor_words () in
  assert res.E.trace.Trace.stalled;
  int_of_float (w1 -. w0)

(* The steady-state budget: the marginal allocation of one additional
   round of 16 broadcast deliveries.  Measured at 4 words synchronous, 5
   under Uniform delays and 2 under GST (the round's slots in the trace's
   packed counters); 16 still catches any per-delivery regression (16
   deliveries at even one boxed word each would add 16 or more). *)
let words_per_round_budget = 16

let test_round_allocation () =
  let short = minor_words_of_run ~max_rounds:100 in
  let long = minor_words_of_run ~max_rounds:1100 in
  let per_round = (long - short) / 1000 in
  Alcotest.(check bool)
    (Printf.sprintf
       "steady-state allocation: %d words/round exceeds the %d-word budget"
       per_round words_per_round_budget)
    true
    (per_round <= words_per_round_budget);
  (* And the budget is not vacuously loose: a warm round costs something
     (its slots in the trace snapshot's packed counters), so a zero
     reading would mean the measurement is broken (e.g. the run
     fast-forwarded instead of executing rounds). *)
  Alcotest.(check bool) "rounds actually execute and allocate" true
    (per_round > 0)

(* Same measurement with the run's fixed costs included: whole-run words
   divided by rounds must stay within a small multiple of the marginal
   budget, so per-run setup (engine arrays, scheduler buckets, trace
   buffer) cannot silently balloon either. *)
let test_run_allocation () =
  let total = minor_words_of_run ~max_rounds:1000 in
  let per_round = total / 1000 in
  Alcotest.(check bool)
    (Printf.sprintf "whole-run allocation: %d words/round (budget %d)"
       per_round (2 * words_per_round_budget))
    true
    (per_round <= 2 * words_per_round_budget)

(* --- one whole checked run --- *)

(* The per-run budget the model checker's workload lives on: one fixed
   check-style execution (n = 5, t = 1, one scripted Byzantine node,
   Algorithm 1 over Dolev-Strong) through [Runner.run_checked], measured
   warm.  It covers everything a run builds besides the rounds — config,
   per-node protocol state, trace snapshot, outcome record and property
   checks; the engine's buffers come from the domain's reused run
   context — so a regression in per-run construction or accounting shows
   up here even when the per-round budget above is untouched.  Measured
   at 2,492 words (x86-64, OCaml 5.1.1; Phase 1 decodes each shared
   window once instead of growing a batch buffer per node); the budget
   leaves about 11% of slack. *)
let words_per_run_budget = 2_775

let checked_spec =
  let module Runner = Vv_core.Runner in
  let module Strategy = Vv_core.Strategy in
  Runner.spec ~byzantine:[ 4 ] ~protocol:Runner.Algo1
    ~bb:Vv_bb.Bb.Dolev_strong
    ~strategy:
      (Strategy.Scripted [ Strategy.Vote_all 1; Strategy.Propose_all 1 ])
    ~max_rounds:60 ~n:5 ~t:1
    (List.map Vv_ballot.Option_id.of_int [ 0; 0; 0; 1; 0 ])

(* Words one warm [Runner.run_checked] of [spec] allocates; the run must
   terminate. *)
let checked_run_words spec =
  let w0 = Gc.minor_words () in
  let r = Vv_core.Runner.run_checked spec in
  let w1 = Gc.minor_words () in
  (match r with
  | Ok o -> assert o.Vv_core.Runner.termination
  | Error _ -> assert false);
  int_of_float (w1 -. w0)

let test_checked_run_allocation () =
  ignore (checked_run_words checked_spec);
  let per_run = checked_run_words checked_spec in
  Alcotest.(check bool)
    (Printf.sprintf "checked run: %d words exceeds the %d-word budget" per_run
       words_per_run_budget)
    true
    (per_run <= words_per_run_budget);
  Alcotest.(check bool) "the run actually executes" true (per_run > 0)

(* --- n = 64 checked runs --- *)

(* Figure 1's electorate size: Algorithm 1 at n = 64 (t = f = 21, honest
   inputs 30/8/5, colluding Byzantine nodes), once over Phase-King and
   once over Dolev-Strong.  Each of the run's ~32,000 deliveries crosses
   the engine, the sub-machine inbox and the vote counters, so any
   per-delivery or per-vote allocation multiplies into these budgets.
   Measured warm at 42,680 (Phase-King) and 50,358 (Dolev-Strong) words
   (x86-64, OCaml 5.1.1); each budget leaves about 11% of slack. *)
let n64_budgets = [ (Vv_bb.Bb.Phase_king, 47_500); (Vv_bb.Bb.Dolev_strong, 56_000) ]

let n64_spec bb =
  let o = Vv_ballot.Option_id.of_int in
  Vv_core.Runner.simple_spec ~protocol:Vv_core.Runner.Algo1 ~bb ~t:21 ~f:21
    (List.init 43 (fun i -> o (if i < 30 then 0 else if i < 38 then 1 else 2)))

let test_n64_run_allocation () =
  List.iter
    (fun (bb, budget) ->
      let spec = n64_spec bb in
      ignore (checked_run_words spec);
      let per_run = checked_run_words spec in
      Alcotest.(check bool)
        (Printf.sprintf "n=64 %s run: %d words exceeds the %d-word budget"
           (Vv_bb.Bb.name bb) per_run budget)
        true (per_run <= budget);
      Alcotest.(check bool) "the run actually executes" true (per_run > 0))
    n64_budgets

(* --- RNG-drawing delay models --- *)

(* The same marginal measurement under delay models that draw from the
   RNG for every delivery.  The splitmix state is unboxed, so a draw
   allocates nothing and a Uniform round meets the synchronous budget
   outright.  The GST pin stays relative as well: one additional round
   under ES, post-GST, must cost no more than the same round under
   Uniform over the same delay range plus the synchronous budget.  That
   catches the synchrony axis reintroducing per-delivery structure
   (boxed verdicts, per-round views, option churn in the clamp).  GST
   sits past the short run's horizon so both runs cross it identically
   warmed. *)
let minor_words_of_delay_run ~delay ~max_rounds =
  let cfg = Config.make ~n:4 ~t_max:1 ~max_rounds ~delay () in
  let w0 = Gc.minor_words () in
  let res = E.run_exn cfg ~inputs:(fun id -> id) () in
  let w1 = Gc.minor_words () in
  assert res.E.trace.Trace.stalled;
  int_of_float (w1 -. w0)

let marginal_words_per_round ~delay =
  let short = minor_words_of_delay_run ~delay ~max_rounds:100 in
  let long = minor_words_of_delay_run ~delay ~max_rounds:1100 in
  (long - short) / 1000

let test_uniform_round_allocation () =
  let uniform =
    marginal_words_per_round ~delay:(Delay.Uniform { lo = 1; hi = 2 })
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "uniform delays: %d words/round exceeds the %d-word budget" uniform
       words_per_round_budget)
    true
    (uniform <= words_per_round_budget);
  Alcotest.(check bool) "uniform rounds actually execute and allocate" true
    (uniform > 0)

let test_gst_round_allocation () =
  let uniform =
    marginal_words_per_round ~delay:(Delay.Uniform { lo = 1; hi = 2 })
  in
  let gst =
    marginal_words_per_round
      ~delay:
        (Delay.Eventually_synchronous { gst = 50; bound = 2; schedule = None })
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "gst scheduler: %d words/round vs uniform %d + budget %d" gst uniform
       words_per_round_budget)
    true
    (gst <= uniform + words_per_round_budget);
  Alcotest.(check bool) "gst rounds actually execute and allocate" true
    (gst > 0)

(* --- chaos transit verdicts --- *)

(* The packed transit verdict ([Network.transit_i]) keeps the per-link
   chaos decision off the heap: an inert link consumes neither randomness
   nor words, and an active one costs at most the RNG draws (a float draw
   may box).  The variant-returning [Network.transit] stays available for
   callers that want the decoded record. *)
let transit_words net ~count =
  let rng = Network.rng net in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to count do
    sink := !sink lxor Network.transit_i net rng ~round:(i land 15) ~src:0 ~dst:2
  done;
  let w1 = Gc.minor_words () in
  ignore !sink;
  int_of_float (w1 -. w0)

let test_transit_allocation () =
  (* Inert substrate: the guard short-circuits before any draw — exactly
     zero words across 10k calls. *)
  let inert = Network.make ~seed:3 () in
  Alcotest.(check int) "inert transit allocates nothing" 0
    (transit_words inert ~count:10_000);
  (* Active substrate: marginal cost per verdict stays within a few boxed
     RNG draws (at most three per verdict: drop, jitter, duplicate). *)
  let active = Network.make ~drop:0.3 ~jitter:1 ~duplicate:0.1 ~seed:3 () in
  let short = transit_words active ~count:1_000 in
  let long = transit_words active ~count:11_000 in
  let per_call = (long - short) / 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "active transit: %d words/call (budget 64)" per_call)
    true
    (per_call <= 64)

(* --- serve hot loop --- *)

(* The per-request cost of the daemon's framing layer: parse one submit
   line, render its ack.  Unlike the engine round above this path does
   allocate (a JSON tree in, a response string out) — the pin is that the
   cost stays proportional to one small request, not to connection
   lifetime or ledger height.  Same marginal-words idiom: a long batch
   over a short one cancels warmup. *)
let submit_line =
  {|{"id":42,"method":"submit","params":{"subject":7,"inputs":[0,1,0,2,1,0,0,0,0]}}|}

let rpc_words_of ~count =
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to count do
    match Vv_serve.Rpc.parse submit_line with
    | Ok (Vv_serve.Rpc.Submit { subject; _ }) ->
        sink :=
          !sink + subject
          + String.length
              (Vv_serve.Rpc.submit_ack ~id:(Vv_prelude.Json.Int 42)
                 ~position:11 ~slot:2 ~lane:3)
    | _ -> assert false
  done;
  let w1 = Gc.minor_words () in
  assert (!sink > 0);
  int_of_float (w1 -. w0)

let words_per_request_budget = 1500

let test_rpc_allocation () =
  let short = rpc_words_of ~count:200 in
  let long = rpc_words_of ~count:1200 in
  let per_request = (long - short) / 1000 in
  Alcotest.(check bool)
    (Printf.sprintf
       "serve framing: %d words/request exceeds the %d-word budget"
       per_request words_per_request_budget)
    true
    (per_request <= words_per_request_budget);
  Alcotest.(check bool) "requests actually allocate" true (per_request > 0)

let () =
  Alcotest.run "perf"
    [
      ( "allocation",
        [
          Alcotest.test_case "steady-state words/round" `Quick
            test_round_allocation;
          Alcotest.test_case "whole-run words/round" `Quick
            test_run_allocation;
          Alcotest.test_case "checked run words/run" `Quick
            test_checked_run_allocation;
          Alcotest.test_case "n=64 runs words/run" `Quick
            test_n64_run_allocation;
          Alcotest.test_case "uniform delay words/round" `Quick
            test_uniform_round_allocation;
          Alcotest.test_case "gst scheduler words/round" `Quick
            test_gst_round_allocation;
          Alcotest.test_case "chaos transit words/verdict" `Quick
            test_transit_allocation;
          Alcotest.test_case "serve framing words/request" `Quick
            test_rpc_allocation;
        ] );
    ]
