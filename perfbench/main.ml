(* The repository benchmark: one workload per process, driven at one
   domain per layer call (jobs = 1), timed from outside through the
   layers' public functions, every output checked.

     main.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics; --trace 1 alternates passes
   through the public entry point untraced, the layer-by-layer path
   untraced and that path traced, and prints the per-layer metrics.  The
   last stdout line is one JSON object {correct, attempted, failed,
   metrics}.  See README.md for what each metric means on each
   workload. *)

module Runner = Vv_core.Runner
module Oid = Vv_ballot.Option_id
module Executor = Vv_exec.Executor
module Summary = Vv_exec.Summary
module Campaign = Vv_exec.Campaign
module Emit = Vv_exec.Emit
module Table = Vv_prelude.Table
module Json = Vv_prelude.Json
module Rng = Vv_prelude.Rng
module Space = Vv_check.Space
module Oracle = Vv_check.Oracle
module Check = Vv_check.Check
module Report = Vv_check.Report
module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine
module Server = Vv_serve.Server
module Client = Vv_serve.Client
module Rpc = Vv_serve.Rpc

let now = Unix.gettimeofday

(* ---- command line ---- *)

let workload = ref ""
let seed = ref 0
let seconds = ref 10.
let trace = ref 0
(* Span dumps and the serve socket live here, inside the checkout. *)
let out_dir = ".perfbench"

let ensure_out_dir () =
  try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "check-full|wide-n64|chaos-gst|serve-loopback");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0 = end-to-end metrics, 1 = per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1"

(* ---- statistics ---- *)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* ---- operation accounting and failure reports ---- *)

let attempted = ref 0
let failed = ref 0
let checks_ok = ref true

(* One line per failed operation, naming everything needed to replay it. *)
let fail ~pass fmt =
  Printf.ksprintf
    (fun what ->
      incr failed;
      Printf.printf
        "FAIL workload=%s seed=%d pass=%d %s (replay: python3 perfbench/run.py \
         --workload %s --seed %d --seconds %g --trace %d)\n%!"
        !workload !seed pass what !workload !seed !seconds !trace)
    fmt

(* A check on a whole pass rather than one operation. *)
let check_fail ~pass fmt =
  Printf.ksprintf
    (fun what ->
      checks_ok := false;
      Printf.printf "CHECK-FAILED workload=%s seed=%d pass=%d %s\n%!" !workload
        !seed pass what)
    fmt

(* ---- metric output ---- *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

let emit () =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) !metrics in
  if not finite then
    List.iter
      (fun (n, v, _) ->
        if not (Float.is_finite v) then Printf.printf "CHECK-FAILED metric %s = %f\n" n v)
      !metrics;
  let correct = !checks_ok && finite && !failed = 0 && !attempted > 0 in
  let body =
    List.rev_map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n
          (if Float.is_finite v then v else 0.)
          u)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed (String.concat ", " body)

(* ---- shared measurement scaffolding ---- *)

let spans = Spans.create ()
let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.

(* Host-speed reference.  On a shared host the machine's speed can drift
   by tens of percent over minutes while CPU time still tracks wall time,
   so it is not scheduling.  A fixed stdlib-only kernel (reference.ml) is
   timed in a short-lived process of its own before and after every pass,
   and timings are reported on the reference host on which that kernel
   takes [ref_nominal_s].  The kernel's process shares no runtime state
   with this one, so a change to the program moves the normalised figures
   as it moves the raw ones. *)
let ref_nominal_s = 0.1

let reference_exe = Filename.concat (Filename.dirname Sys.executable_name) "reference.exe"

(* Every domain the benchmark keeps busy is pinned to a CPU of its own:
   this one to [cpu 0], serve-loopback's daemon to [cpu 1].  The virtual
   CPUs of a shared host differ in speed at any moment, so the reference
   kernel runs pinned on each CPU in use, at once, and the mean of their
   times is the reference.  Unpinned, the scheduler at times put the
   daemon and the client domain on one CPU for seconds, and the CPU time
   per decision doubled. *)
let cpus = Perfbench_affinity.Affinity.allowed_cpus ()
let cpu k = if Array.length cpus = 0 then None else Some cpus.(k mod Array.length cpus)
let pin k = Option.iter (fun c -> ignore (Perfbench_affinity.Affinity.pin_thread c)) (cpu k)
let reference_cpus = ref [ cpu 0 ]

let reference_s () =
  let kernels =
    List.map
      (fun c ->
        let arg = match c with Some c -> [ string_of_int c ] | None -> [] in
        Unix.open_process_args_in reference_exe (Array.of_list (reference_exe :: arg)))
      !reference_cpus
  in
  (* Wait for every kernel before judging any, so none is left running. *)
  let ended =
    List.map
      (fun ic ->
        let line = try input_line ic with End_of_file -> "" in
        (Unix.close_process_in ic, float_of_string_opt line))
      kernels
  in
  let times =
    List.map
      (function
        | Unix.WEXITED 0, Some s when s > 0. -> s
        | _ -> failwith ("reference kernel failed: " ^ reference_exe))
      ended
  in
  List.fold_left ( +. ) 0. times /. float_of_int (List.length times)

let heap_after_pass0 = ref 0

(* [dt] wall seconds of [f] alone (not its [prepare]/[finish] hooks) and
   [cpu] the CPU seconds of this process, all its domains, over the same
   span; [host] the reference kernel's seconds around the pass (mean of
   the runs just before and just after it), so [dt *. ref_nominal_s /.
   host] is the pass time on the reference host. *)
type pass = { dt : float; cpu : float; host : float; runs : int; words : float }

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Run [f pass_index] until [budget] seconds have gone, at least
   [min_passes] times.  Each pass returns the protocol runs it
   completed.  [Gc.minor_words] counts this domain only, so [finish]
   returns the minor words that other domains allocated for the pass. *)
let passes ?(prepare = fun () -> ()) ?(finish = fun () -> 0.) ~budget ~min_passes ~first f =
  let stop = now () +. budget in
  let rec go i before acc =
    prepare ();
    let w0 = Gc.minor_words () in
    let c0 = cpu_s () in
    let t0 = now () in
    let runs = f i in
    let dt = now () -. t0 in
    let cpu = cpu_s () -. c0 in
    let words = Gc.minor_words () -. w0 in
    if i = 0 then heap_after_pass0 := (Gc.quick_stat ()).Gc.top_heap_words;
    let words = words +. finish () in
    let after = reference_s () in
    let p = { dt; cpu; host = (before +. after) /. 2.; runs; words } in
    Printf.eprintf
      "pass %d: %d runs in %.4f s, reference kernel %.4f s, %.0f minor words, %.4f cpu s\n%!" i
      runs dt p.host words cpu;
    let acc = p :: acc in
    if i + 1 - first >= min_passes && now () >= stop then List.rev acc
    else go (i + 1) after acc
  in
  go first (reference_s ()) []

(* The clock a workload's rates are taken on.  serve-loopback's passes
   are latency-bound: each decision waits for the daemon and the client
   domain to wake each other across CPUs, and on a shared host that
   wake-up took so long for seconds at a time that the served rate
   halved while the kernels and the CPU time per decision did not move.
   So its rates are per CPU second of the process (daemon and client
   domains together), which measures the program's work per decision;
   the wall rate is the per-layer [wall.runs_per_s]. *)
let cpu_clock = ref false

let host_rate (p : pass) =
  float_of_int p.runs /. (if !cpu_clock then p.cpu else p.dt) *. p.host /. ref_nominal_s

let wall_rate (p : pass) = float_of_int p.runs /. p.dt

(* Pass 0 of a fresh process warms caches and lazy set-up; it supplies the
   exact allocation counters, the later passes the timings. *)
let timed ps = match ps with [ p ] -> [ p ] | _ :: rest -> rest | [] -> []

(* Take [setup_reps] samples of the set-up -- a fixed count, so the heap a
   fresh process brings to pass 0 is always the same -- and report the
   median on the reference host; keep the last result.  A sample is the
   mean of [inner] back-to-back set-ups, so that one sample lasts
   tens of milliseconds even where a set-up takes microseconds: short
   samples were bimodal, a set-up taking either about 14 or about 25 us.  The reference
   kernel runs between samples and each sample is normalised by the two
   around it, because a sample is far shorter than the host's speed
   phases. *)
let setup_reps = 11

let timed_setup ?(before = fun () -> ()) ?(inner = 1) label f =
  let name = Spans.intern spans label in
  let last = ref None in
  let rec go k host_before acc =
    if k = setup_reps then List.rev acc
    else begin
      before ();
      (* Drop the previous sample's result, so it can be collected. *)
      last := None;
      let one () =
        let sp = Spans.enter spans name ~parent:(-1) ~req:k in
        let v = f () in
        Spans.leave spans sp;
        v
      in
      let t0 = now () in
      for _ = 2 to inner do
        ignore (Sys.opaque_identity (one ()))
      done;
      let v = one () in
      let dt = (now () -. t0) /. float_of_int inner in
      last := Some v;
      let host_after = reference_s () in
      go (k + 1) host_after ((dt, (host_before +. host_after) /. 2.) :: acc)
    end
  in
  let samples = go 0 (reference_s ()) [] in
  let v = Option.get !last in
  Printf.eprintf "set-up %s: %s s, reference kernel %s s, top heap %.2f MB\n%!" label
    (String.concat " " (List.map (fun (dt, _) -> Printf.sprintf "%.7f" dt) samples))
    (String.concat " " (List.map (fun (_, h) -> Printf.sprintf "%.4f" h) samples))
    (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_mb);
  (median (List.map (fun (dt, host) -> dt *. ref_nominal_s /. host) samples), v)

let end_to_end ~setup_s ps =
  let p0 = List.hd ps in
  metric "runs_per_s" "1/s" (median (List.map host_rate (timed ps)));
  metric "minor_words_per_run" "words" (p0.words /. float_of_int p0.runs);
  metric "peak_heap_mb" "MB" (float_of_int !heap_after_pass0 *. word_mb);
  metric "setup_s" "s" setup_s

let pct a b = if b = 0. then 0. else 100. *. (a -. b) /. b

(* Per-layer accumulators shared by the engine-driving workloads; they are
   filled only from traced passes. *)
type engine_acc = {
  mutable e_runs : int;
  mutable e_rounds : int;
  mutable e_msgs : int;
  mutable e_words : float;
}

let engine_acc () = { e_runs = 0; e_rounds = 0; e_msgs = 0; e_words = 0. }

let observe_engine acc (o : Runner.outcome) words =
  acc.e_runs <- acc.e_runs + 1;
  acc.e_rounds <- acc.e_rounds + o.Runner.rounds;
  acc.e_msgs <- acc.e_msgs + o.Runner.honest_msgs + o.Runner.byz_msgs;
  acc.e_words <- acc.e_words +. words

(* Every per-layer metric is printed on every workload: a layer the
   workload bypasses reports 0, which is what it measured. *)
let per_layer_names =
  [
    ("check.enumerate_ms", "ms"); ("check.classify_ns", "ns");
    ("check.aggregate_ms", "ms"); ("engine.run_us", "us");
    ("engine.ns_per_msg", "ns"); ("engine.minor_words_per_run", "words");
    ("engine.minor_words_per_round", "words"); ("engine.rounds_per_run", "count");
    ("engine.msgs_per_run", "count"); ("exec.overhead_pct", "%");
    ("campaign.cell_ms.p50", "ms"); ("campaign.cell_ms.max", "ms");
    ("chaos.dropped_per_run", "count"); ("chaos.retrans_per_run", "count");
    ("chaos.exact_cell_ratio", "ratio"); ("ledger.step_us", "us");
    ("ledger.attempts_per_decision", "count");
    ("ledger.rounds_pipelined_per_decision", "count"); ("rpc.parse_ns", "ns");
    ("serve.ack_ms.p50", "ms"); ("serve.ack_ms.p99", "ms");
    ("serve.decide_wait_ms.p50", "ms"); ("serve.latency_ms.p50", "ms");
    ("serve.latency_ms.p99", "ms"); ("serve.max_rate_per_s", "1/s");
    ("serve.gen_late_ms", "ms"); ("serve.errors", "count");
    ("serve.slow_disconnects", "count"); ("wall.runs_per_s", "1/s");
    ("trace.runs_per_s", "1/s");
    ("trace.overhead_pct", "%"); ("trace.spans", "count");
  ]

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 32
let layer name v = Hashtbl.replace layer_values name v

let emit_layers () =
  List.iter
    (fun (name, unit) ->
      metric name unit (Option.value ~default:0. (Hashtbl.find_opt layer_values name)))
    per_layer_names

(* Exact counters, from the first traced pass. *)
let engine_counters acc =
  let fr = float_of_int (max 1 acc.e_runs) in
  layer "engine.minor_words_per_run" (acc.e_words /. fr);
  layer "engine.minor_words_per_round" (acc.e_words /. float_of_int (max 1 acc.e_rounds));
  layer "engine.rounds_per_run" (float_of_int acc.e_rounds /. fr);
  layer "engine.msgs_per_run" (float_of_int acc.e_msgs /. fr)

(* Mean self time per span named [label], in units of 1/[scale] s. *)
let mean_self scale label =
  let l = Spans.layers spans label in
  scale *. l.Spans.self_s /. float_of_int (max 1 l.Spans.count)

(* Self time of the engine.run spans over every traced pass. *)
let engine_times acc =
  let l = Spans.layers spans "engine.run" in
  layer "engine.run_us" (mean_self 1e6 "engine.run");
  layer "engine.ns_per_msg" (1e9 *. l.Spans.self_s /. float_of_int (max 1 acc.e_msgs))

(* Wrap a layer-by-layer pass so the first traced one fills the exact
   counters and later ones leave them alone. *)
let counting acc direct =
  let first = ref true in
  fun pass ->
    let r = direct pass in
    if spans.Spans.on && !first then begin
      first := false;
      engine_counters acc
    end;
    r

(* --trace 1 alternates pass by pass between [modes] (traced?, pass), so
   host drift hits every mode alike.  The first round warms up: it runs
   untraced and is dropped.  Returns each mode's passes. *)
let interleaved ?prepare ?finish ?(budget = !seconds) modes =
  let k = Array.length modes in
  let ps =
    passes ?prepare ?finish ~budget ~min_passes:(2 * k) ~first:0 (fun i ->
        let traced, f = modes.(i mod k) in
        spans.Spans.on <- traced && i >= k;
        let r = f i in
        spans.Spans.on <- false;
        r)
  in
  Array.init k (fun m -> List.filteri (fun i _ -> i >= k && i mod k = m) ps)

let mode_rate ps = median (List.map host_rate ps)

(* The public entry point untraced, the layer-by-layer path untraced, and
   that path traced: executor overhead is the first gap, tracing overhead
   the second. *)
let layer_paths ~entry ~direct acc =
  let r = interleaved [| (false, entry); (false, direct); (true, counting acc direct) |] in
  let ra = mode_rate r.(0) and rc = mode_rate r.(1) and rb = mode_rate r.(2) in
  layer "wall.runs_per_s" (median (List.map wall_rate r.(0)));
  layer "exec.overhead_pct" (pct (1. /. ra) (1. /. rc));
  layer "trace.runs_per_s" rb;
  layer "trace.overhead_pct" (pct (1. /. rb) (1. /. rc));
  engine_times acc

(* ======================= check-full ======================= *)

(* The exhaustive Full space of the small-model checker, 43,043
   executions.  The space is the whole input: it does not depend on the
   seed.  The untraced pass is Check.run's own composition at jobs = 1
   with the enumeration hoisted into set-up; the layer-by-layer pass
   calls Runner.run_checked, Oracle.classify and Check.aggregate
   separately. *)
let check_full () =
  let full_runs = 43_043 in
  if !trace = 1 then spans.Spans.on <- true;
  let setup_s, execs =
    timed_setup ~inner:4 "check.enumerate" (fun () -> Space.executions (Check.dims_of Check.Full))
  in
  spans.Spans.on <- false;
  let count = Array.length execs in
  if count <> full_runs then check_fail ~pass:(-1) "enumerated %d executions, want %d" count full_runs;
  let render r =
    Emit.tables_string Emit.Csv (Report.tables r) ^ Report.verdict_line r
  in
  let results = ref [] in
  let judge ~pass classes r =
    attempted := !attempted + count;
    Array.iteri
      (fun i c ->
        match c with
        | Oracle.Violation _ ->
            fail ~pass "execution=%d class=%s exec=%s" i (Oracle.class_label c)
              (Fmt.str "%a" Space.pp_execution execs.(i))
        | _ -> ())
      classes;
    if not r.Check.ok then check_fail ~pass "Check.aggregate reports not ok";
    if r.Check.total_runs <> full_runs || r.Check.violations_total <> 0 then
      check_fail ~pass "total_runs=%d violations=%d" r.Check.total_runs
        r.Check.violations_total;
    results := (pass, r) :: !results
  in
  let entry pass =
    let classes =
      Executor.map ~jobs:1 ~count (fun i -> Oracle.classify_run execs.(i))
    in
    judge ~pass classes (Check.aggregate Check.Full ~execs ~classes);
    count
  in
  let acc = engine_acc () in
  let n_pass = Spans.intern spans "check.pass"
  and n_run = Spans.intern spans "engine.run"
  and n_cls = Spans.intern spans "check.classify"
  and n_agg = Spans.intern spans "check.aggregate" in
  let direct pass =
    let root = Spans.enter spans n_pass ~parent:(-1) ~req:pass in
    let classes =
      Array.mapi
        (fun i e ->
          let spec = Space.spec_of e in
          let w0 = if spans.Spans.on then Gc.minor_words () else 0. in
          let sp = Spans.enter spans n_run ~parent:root ~req:i in
          let o = Runner.run_checked spec in
          Spans.leave spans sp;
          if spans.Spans.on then begin
            let w = Gc.minor_words () -. w0 in
            match o with Ok o -> observe_engine acc o w | Error _ -> ()
          end;
          let sp = Spans.enter spans n_cls ~parent:root ~req:i in
          let c = Oracle.classify e o in
          Spans.leave spans sp;
          c)
        execs
    in
    let sp = Spans.enter spans n_agg ~parent:root ~req:pass in
    let r = Check.aggregate Check.Full ~execs ~classes in
    Spans.leave spans sp;
    Spans.leave spans root;
    judge ~pass classes r;
    count
  in
  if !trace = 0 then begin
    let ps = passes ~budget:!seconds ~min_passes:3 ~first:0 entry in
    end_to_end ~setup_s ps
  end
  else begin
    layer_paths ~entry ~direct acc;
    layer "check.enumerate_ms" (mean_self 1e3 "check.enumerate");
    layer "check.classify_ns" (mean_self 1e9 "check.classify");
    layer "check.aggregate_ms" (mean_self 1e3 "check.aggregate")
  end;
  (* Every pass, traced or not, must equal Check.run ~jobs:1. *)
  let reference = render (Check.run ~jobs:1 Check.Full) in
  List.iter
    (fun (pass, r) ->
      if render r <> reference then
        check_fail ~pass "pipeline result differs from Check.run ~jobs:1")
    !results

(* ======================= wide-n64 ======================= *)

(* n = 64 decisive electorates under Collude_second: the BFT variants at
   t = f = 21 with honest counts 30/8/5, the safety-guaranteed variant at
   t = f = 12 with 40/8/4, each behind Phase-King and Dolev-Strong (Cft
   has no substrate).  The seed relabels the options, shuffles which
   honest node holds which, and seeds the trials. *)
let wide_configs =
  let bft = (21, [ 30; 8; 5 ]) and sct = (12, [ 40; 8; 4 ]) in
  let pk = Vv_bb.Bb.Phase_king and ds = Vv_bb.Bb.Dolev_strong in
  [
    (Runner.Algo1, pk, bft); (Runner.Algo1, ds, bft);
    (Runner.Algo2_sct, pk, sct); (Runner.Algo2_sct, ds, sct);
    (Runner.Algo3_incremental, pk, bft); (Runner.Algo3_incremental, ds, bft);
    (Runner.Cft, Vv_bb.Bb.default, bft);
  ]

let wide_trials = 40

let wide_specs seed =
  let rng = Rng.create seed in
  let labels = [| 0; 1; 2 |] in
  Rng.shuffle rng labels;
  List.mapi
    (fun k (protocol, bb, (t, counts)) ->
      let honest =
        Array.of_list
          (List.concat
             (List.mapi (fun opt c -> List.init c (fun _ -> Oid.of_int labels.(opt))) counts))
      in
      Rng.shuffle rng honest;
      let spec =
        Runner.simple_spec ~protocol ~bb ~strategy:Vv_core.Strategy.Collude_second ~t
          ~f:t (Array.to_list honest)
      in
      (k, protocol, bb, spec, Rng.derive seed k))
    wide_configs

let wide_label protocol bb =
  Printf.sprintf "%s/%s" (Runner.protocol_label protocol)
    (match bb with
    | Vv_bb.Bb.Phase_king -> "phase-king"
    | Vv_bb.Bb.Dolev_strong -> "dolev-strong"
    | Vv_bb.Bb.Eig -> "eig")

let wide_n64 () =
  if !trace = 1 then spans.Spans.on <- true;
  let setup_s, specs = timed_setup ~inner:2000 "wide.generate" (fun () -> wide_specs !seed) in
  spans.Spans.on <- false;
  let summaries = Hashtbl.create 8 in
  let judge_summary ~pass k label (s : Summary.t) =
    (match Hashtbl.find_opt summaries k with
    | Some s' when s' <> s ->
        check_fail ~pass "config=%s summary differs between run_trials and direct runs" label
    | Some _ -> ()
    | None -> Hashtbl.add summaries k s);
    if s.Summary.total <> wide_trials then
      check_fail ~pass "config=%s total=%d" label s.Summary.total
  in
  let entry pass =
    List.fold_left
      (fun runs (k, protocol, bb, spec, cseed) ->
        let s = Executor.run_trials ~jobs:1 ~trials:wide_trials ~seed:cseed spec in
        let label = wide_label protocol bb in
        attempted := !attempted + s.Summary.total;
        let bad =
          List.fold_left max (s.Summary.total - s.Summary.successes)
            [ s.Summary.total - s.Summary.terminated; s.Summary.agreement_failures;
              s.Summary.validity_failures; s.Summary.invalid_adversary ]
        in
        if bad > 0 then
          fail ~pass "config=%s failed_runs=%d (successes=%d terminated=%d agreement_failures=%d validity_failures=%d invalid_adversary=%d)"
            label bad s.Summary.successes s.Summary.terminated
            s.Summary.agreement_failures s.Summary.validity_failures
            s.Summary.invalid_adversary;
        failed := !failed + max 0 (bad - 1);
        judge_summary ~pass k label s;
        runs + s.Summary.total)
      0 specs
  in
  let acc = engine_acc () in
  let n_cfg = Spans.intern spans "exec.config" and n_run = Spans.intern spans "engine.run" in
  let direct pass =
    List.fold_left
      (fun runs (k, protocol, bb, spec, cseed) ->
        let label = wide_label protocol bb in
        let root = Spans.enter spans n_cfg ~parent:(-1) ~req:k in
        let s = ref Summary.empty in
        for i = 0 to wide_trials - 1 do
          let spec = Runner.with_seed (Executor.derive_seed ~seed:cseed i) spec in
          let w0 = if spans.Spans.on then Gc.minor_words () else 0. in
          let sp = Spans.enter spans n_run ~parent:root ~req:((k * wide_trials) + i) in
          let o = Runner.run_checked spec in
          Spans.leave spans sp;
          incr attempted;
          (match o with
          | Ok oc ->
              if spans.Spans.on then observe_engine acc oc (Gc.minor_words () -. w0);
              if not (oc.Runner.termination && oc.Runner.agreement && oc.Runner.voting_validity)
              then
                fail ~pass "config=%s trial=%d termination=%b agreement=%b voting_validity=%b"
                  label i oc.Runner.termination oc.Runner.agreement oc.Runner.voting_validity
          | Error (`Invalid_adversary m) ->
              fail ~pass "config=%s trial=%d invalid_adversary=%s" label i m);
          s := Summary.observe !s o
        done;
        Spans.leave spans root;
        judge_summary ~pass k label !s;
        runs + wide_trials)
      0 specs
  in
  if !trace = 0 then begin
    let ps = passes ~budget:!seconds ~min_passes:3 ~first:0 entry in
    end_to_end ~setup_s ps
  end
  else begin
    layer_paths ~entry ~direct acc
  end

(* ======================= chaos-gst ======================= *)

(* E17 (chaos substrate, with and without retransmission) and E20
   (synchronous, eventually-synchronous and asynchronous schedulers) at
   Full through Campaign.run.  The seed offsets each campaign's default
   base seed; E20 at its default seed is also compared byte-for-byte with
   the committed golden. *)
let chaos_campaigns () =
  [
    ("e17", Vv_analysis.Exp_chaos.campaign ());
    ("e17-retransmit", Vv_analysis.Exp_chaos.campaign ~retransmit:true ());
    ("e20", Vv_analysis.Exp_gst.campaign ());
  ]

(* Column lookup by header over a table's JSON form. *)
let columns table =
  match Table.to_json table with
  | Json.Obj fields -> (
      match (List.assoc_opt "headers" fields, List.assoc_opt "rows" fields) with
      | Some (Json.List hs), Some (Json.List rows) ->
          let hs = List.map (function Json.String s -> s | _ -> "") hs in
          let rows =
            List.map
              (function
                | Json.List cells ->
                    List.combine hs (List.map (function Json.String s -> s | _ -> "") cells)
                | _ -> [])
              rows
          in
          rows
      | _ -> [])
  | _ -> []

let num row key =
  match List.assoc_opt key row with
  | Some s -> ( try float_of_string s with _ -> nan)
  | None -> nan

(* [chaos_runs] counts the runs of rows that report substrate drops and
   retransmissions (E17's); the per-run chaos counts are over those. *)
type grid = {
  runs : int;
  chaos_runs : int;
  exact_cells : int;
  cells : int;
  dropped : float;
  retrans : float;
}

let no_grid = { runs = 0; chaos_runs = 0; exact_cells = 0; cells = 0; dropped = 0.; retrans = 0. }

(* The first table of each campaign is its per-cell grid.  Returns run
   and cell counts, and names every cell the campaign's gate rejects. *)
let read_grid ~pass id (e : Campaign.emitted) =
  let rows = match e.Campaign.tables with t :: _ -> columns t | [] -> [] in
  let sct = Runner.protocol_label Runner.Algo2_sct in
  List.fold_left
    (fun g row ->
      let trials = num row "exact" +. num row "stall" +. num row "violation" in
      let bad =
        if id = "e20" then List.assoc_opt "ok" row <> Some "yes"
        else
          (List.assoc_opt "protocol" row = Some sct
          || List.assoc_opt "protocol" row = Some "na-voting")
          && num row "violation" > 0.
      in
      incr attempted;
      if bad then
        fail ~pass "campaign=%s cell=%s" id
          (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) row));
      let chaos = List.mem_assoc "avg dropped" row in
      let avg key = if chaos then num row key *. trials else 0. in
      {
        runs = g.runs + int_of_float trials;
        chaos_runs = (g.chaos_runs + if chaos then int_of_float trials else 0);
        exact_cells = (g.exact_cells + if List.assoc_opt "class" row = Some "exact" then 1 else 0);
        cells = g.cells + 1;
        dropped = g.dropped +. avg "avg dropped";
        retrans = g.retrans +. avg "avg retrans";
      })
    no_grid rows

let chaos_gst () =
  if !trace = 1 then spans.Spans.on <- true;
  let setup_s, campaigns =
    timed_setup ~inner:2000 "chaos.setup" (fun () ->
        List.map (fun (id, c) -> (id, c, Campaign.default_seed c + !seed)) (chaos_campaigns ()))
  in
  spans.Spans.on <- false;
  let n_pass = Spans.intern spans "chaos.pass" and n_camp = Spans.intern spans "campaign.run" in
  let cell_ms = ref [] and framework = ref [] and grids = ref [] in
  let pass_of pass =
    let root = Spans.enter spans n_pass ~parent:(-1) ~req:pass in
    let runs =
      List.fold_left
        (fun runs (id, c, cseed) ->
          let sp = Spans.enter spans n_camp ~parent:root ~req:pass in
          let o = Campaign.run ~profile:Campaign.Full ~jobs:1 ~seed:cseed c in
          Spans.leave spans sp;
          if not o.Campaign.emitted.Campaign.ok then
            check_fail ~pass "campaign=%s seed=%d reports not ok" id cseed;
          let g = read_grid ~pass id o.Campaign.emitted in
          if spans.Spans.on then begin
            Array.iter (fun s -> cell_ms := (1e3 *. s) :: !cell_ms) o.Campaign.cell_seconds;
            grids := g :: !grids
          end
          else if pass >= 2 then begin
            (* Untraced passes after --trace 1's warm-up round. *)
            let cells = Array.fold_left ( +. ) 0. o.Campaign.cell_seconds in
            framework := pct o.Campaign.elapsed cells :: !framework
          end;
          runs + g.runs)
        0 campaigns
    in
    Spans.leave spans root;
    runs
  in
  if !trace = 0 then begin
    let ps = passes ~budget:!seconds ~min_passes:3 ~first:0 pass_of in
    end_to_end ~setup_s ps
  end
  else begin
    (* No separate layer-by-layer path: the campaign is the public entry
       point and the layer below it is reported by its own cell clock. *)
    let first_grids = ref [] in
    let traced pass =
      let r = pass_of pass in
      if !first_grids = [] then first_grids := !grids;
      r
    in
    let r = interleaved [| (false, pass_of); (true, traced) |] in
    layer "wall.runs_per_s" (median (List.map wall_rate r.(0)));
    layer "exec.overhead_pct" (median !framework);
    layer "trace.runs_per_s" (mode_rate r.(1));
    layer "trace.overhead_pct" (pct (1. /. mode_rate r.(1)) (1. /. mode_rate r.(0)));
    layer "campaign.cell_ms.p50" (median !cell_ms);
    layer "campaign.cell_ms.max" (List.fold_left max 0. !cell_ms);
    let g =
      List.fold_left
        (fun a g ->
          {
            runs = a.runs + g.runs;
            chaos_runs = a.chaos_runs + g.chaos_runs;
            exact_cells = a.exact_cells + g.exact_cells;
            cells = a.cells + g.cells;
            dropped = a.dropped +. g.dropped;
            retrans = a.retrans +. g.retrans;
          })
        no_grid !first_grids
    in
    let fr = float_of_int (max 1 g.chaos_runs) in
    layer "chaos.dropped_per_run" (g.dropped /. fr);
    layer "chaos.retrans_per_run" (g.retrans /. fr);
    layer "chaos.exact_cell_ratio" (float_of_int g.exact_cells /. float_of_int (max 1 g.cells))
  end;
  (* E20 at its default seed against the committed golden. *)
  let gst = Vv_analysis.Exp_gst.campaign () in
  let o = Campaign.run ~profile:Campaign.Full ~jobs:1 gst in
  let golden = Filename.concat "test" (Filename.concat "golden" "gst_full.csv") in
  let want = In_channel.with_open_bin golden In_channel.input_all in
  if Emit.tables_string Emit.Csv o.Campaign.emitted.Campaign.tables <> want then
    check_fail ~pass:(-1) "campaign=e20 default seed differs from %s" golden


(* ======================= serve-loopback ======================= *)

(* An in-process daemon: Server.serve at batch 1 and jobs 1 in a second
   domain on a Unix socket, one client connection in this domain.  The
   end-to-end figure is closed-loop throughput in Client.run_load's
   traffic shape (each submission waits for its ack before the next is
   sent), [per_pass] decisions per pass on a freshly booted daemon (the
   reference kernel runs between passes with no second domain alive).
   --trace 1 adds an open-loop sweep at fixed rates, timing each request
   from when it was due.  Request k is a pure function of (seed, k). *)
let serve_n = 9
let serve_t = 2
let per_pass = 1000
let rates = [ 500.; 1000.; 2000. ]
let reference_rate = 1000.
let p99_limit_ms = 5.

let serve_config seed =
  Ledger.config
    ~byzantine:(List.init serve_t (fun i -> serve_n - 1 - i))
    ~retry:(Ledger.Rotate_and_adjust (Vv_core.Session.Bandwagon, 6))
    ~seed ~n:serve_n ~t:serve_t ()

let serve_dist = Vv_dist.Multinomial.create ~n:(serve_n - serve_t) ~p:[| 0.5; 0.3; 0.2 |]

(* The request inputs: a pool of [pool_size] honest-input draws, a pure
   function of the seed, generated in set-up.  Request k is subject k with
   the inputs of pool entry [k mod pool_size]. *)
let pool_size = 4_096

type pool = { inputs : Oid.t list array; encoded : string array }

let serve_pool seed =
  let inputs =
    Array.init pool_size (fun k ->
        let rng = Rng.create (Rng.derive seed k) in
        Vv_dist.Montecarlo.sample_inputs serve_dist rng
        @ List.init serve_t (fun _ -> Oid.of_int 0))
  in
  let encoded =
    Array.map
      (fun l -> Json.to_string (Json.List (List.map (fun o -> Json.Int (Oid.to_int o)) l)))
      inputs
  in
  { inputs; encoded }

let serve_request pool k = (k, pool.inputs.(k mod pool_size))

let submit_line pool k =
  Printf.sprintf {|{"id":%d,"method":"submit","params":{"subject":%d,"inputs":%s}}|} k k
    pool.encoded.(k mod pool_size)

(* One booted daemon and what its client saw.  Request ids (= subjects)
   run on across daemons; on one connection the daemon assigns position
   [id - base]. *)
type daemon = {
  path : string;
  listen : Unix.file_descr;
  dom : (Server.outcome * float) Domain.t;  (* and the domain's minor words *)
  conn : Client.conn;
  base : int;
  mutable next : int;
  due : float array;
  sent : float array;
  acked : float array;
  decided : float array;
  position : int array;
  slots : Ledger.slot option array;
  mutable errors : int;
  mutable duplicates : int;
}

let next_id = ref 0
let sock_counter = ref 0

let boot cfg =
  incr sock_counter;
  ensure_out_dir ();
  let path =
    Filename.concat out_dir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let listen = Server.listen_unix path in
  let dom =
    Domain.spawn (fun () ->
        pin 1;
        let w0 = Gc.minor_words () in
        let o = Server.serve ~batch:1 ~jobs:1 ~listen cfg in
        (o, Gc.minor_words () -. w0))
  in
  let conn = Client.connect_unix ~retry_for:10. path in
  {
    path; listen; dom; conn; base = !next_id; next = !next_id;
    due = [||]; sent = [||]; acked = [||]; decided = [||]; position = [||];
    slots = [||]; errors = 0; duplicates = 0;
  }

(* Size the per-request tables once the daemon is up, so the timed boot
   does not include them. *)
let ready d count =
  let f () = Array.make count nan in
  { d with due = f (); sent = f (); acked = f (); decided = f ();
           position = Array.make count (-1); slots = Array.make count None }

let n_request = Spans.intern spans "serve.request"
let n_ack = Spans.intern spans "serve.ack"
let n_wait = Spans.intern spans "serve.decide_wait"

(* Handle one line from the daemon: a decision notification or a
   response to a submit.  Returns the number of decisions it carried. *)
let on_line d line =
  let t = now () in
  match Rpc.decision_of_line line with
  | Some slot ->
      let pos = slot.Ledger.index in
      if pos < 0 || pos >= Array.length d.slots then (d.errors <- d.errors + 1; 0)
      else if d.slots.(pos) <> None then (d.duplicates <- d.duplicates + 1; 0)
      else begin
        d.slots.(pos) <- Some slot;
        let i = slot.Ledger.subject - d.base in
        if i >= 0 && i < Array.length d.decided then begin
          d.decided.(i) <- t;
          (* One span per request from due time to decision, with
             send->ack and ack->decision as children. *)
          if spans.Spans.on && Float.is_finite d.acked.(i) then begin
            let req = slot.Ledger.subject in
            let r = Spans.record spans n_request ~parent:(-1) ~req ~start:d.due.(i) ~stop:t in
            ignore (Spans.record spans n_ack ~parent:r ~req ~start:d.sent.(i) ~stop:d.acked.(i));
            ignore (Spans.record spans n_wait ~parent:r ~req ~start:d.acked.(i) ~stop:t)
          end
        end;
        1
      end
  | None -> (
      let bad () =
        d.errors <- d.errors + 1;
        Printf.printf "FAIL workload=%s seed=%d response: %s\n%!" !workload !seed line;
        0
      in
      match Json.of_string line with
      | Ok (Json.Obj fields) -> (
          match List.assoc_opt "id" fields with
          | Some (Json.Int id) when id >= d.base && id < d.next -> (
              (* An error response is an ack too: it ends the wait. *)
              d.acked.(id - d.base) <- t;
              match List.assoc_opt "result" fields with
              | Some (Json.Obj r) -> (
                  match List.assoc_opt "position" r with
                  | Some (Json.Int p) -> d.position.(id - d.base) <- p; 0
                  | _ -> bad ())
              | _ -> bad ())
          | _ -> bad ())
      | _ -> bad ())

let send d pool ~due =
  let i = d.next - d.base in
  let line = submit_line pool d.next in
  d.next <- d.next + 1;
  next_id := d.next;
  d.due.(i) <- due;
  d.sent.(i) <- now ();
  Client.send d.conn line

(* Closed loop in Client.run_load's shape: submit, read lines until that
   submission's ack, then submit the next; decisions are read as they
   arrive, and the loop ends when all [count] have been decided.  A
   connection that ends stops the loop, and [verify] reports what is
   missing. *)
let closed_loop d pool count =
  let decided = ref 0 in
  let stop = ref (now () +. 60.) in
  let read () =
    match Client.recv_line ~timeout:(!stop -. now ()) d.conn with
    | Some line -> decided := !decided + on_line d line
    | None -> stop := neg_infinity
  in
  for _ = 1 to count do
    let i = d.next - d.base in
    send d pool ~due:(now ());
    while Float.is_nan d.acked.(i) && now () < !stop do read () done
  done;
  while !decided < count && now () < !stop do read () done;
  count

(* Open loop at [rate] for [duration] seconds; returns the request
   indices (relative to [d.base]) and whether all were decided before the
   drain deadline. *)
let open_loop d pool ~rate ~duration =
  let first = d.next - d.base in
  let t0 = now () +. 0.01 in
  let count = int_of_float (rate *. duration) in
  let pending = ref 0 and k = ref 0 in
  let stop = t0 +. duration +. 2. in
  while (!k < count || !pending > 0) && now () < stop do
    let due = t0 +. (float_of_int !k /. rate) in
    let t = now () in
    if !k < count && t >= due then begin
      send d pool ~due;
      incr k;
      incr pending
    end
    else
      let wait = if !k < count then due -. t else stop -. t in
      match Client.recv_line ~timeout:(Float.max 0. wait) d.conn with
      | Some line -> pending := !pending - on_line d line
      | None -> ()
  done;
  (List.init count (fun j -> first + j), !pending = 0)

let shutdown d =
  Client.send d.conn {|{"id":"bye","method":"shutdown"}|};
  let rec drain () =
    match Client.recv_line ~timeout:10. d.conn with Some _ -> drain () | None -> ()
  in
  drain ();
  let o = Domain.join d.dom in
  Client.close d.conn;
  Unix.close d.listen;
  if Sys.file_exists d.path then Sys.remove d.path;
  o

(* Shut [d] down and check what it served: every submission acknowledged
   at its position and decided exactly once, no error responses, no slow
   disconnects, and the log equal to the in-process Engine.run on the
   same requests.  Returns the requests, the daemon's outcome and the
   minor words its domain allocated. *)
let verify ~pass cfg pool d =
  let outcome, words = shutdown d in
  let count = d.next - d.base in
  attempted := !attempted + count;
  for i = 0 to count - 1 do
    if d.position.(i) <> i || d.slots.(i) = None then
      fail ~pass "daemon=%d request=%d position=%d decided=%b" d.base (d.base + i)
        d.position.(i) (d.slots.(i) <> None)
  done;
  if d.errors > 0 || d.duplicates > 0 || outcome.Server.slow_disconnects > 0 then
    check_fail ~pass "daemon=%d error_responses=%d duplicate_decisions=%d slow_disconnects=%d"
      d.base d.errors d.duplicates outcome.Server.slow_disconnects;
  let requests = List.init count (fun i -> serve_request pool (d.base + i)) in
  let local, _ = Engine.run ~batch:1 ~jobs:1 cfg requests in
  if List.map Option.some local <> Array.to_list (Array.sub d.slots 0 count) then
    check_fail ~pass "daemon=%d served log differs from Engine.run on the same requests" d.base;
  (requests, outcome, words)

let ms ids f =
  List.filter_map (fun i -> let x = f i in if Float.is_finite x then Some (1e3 *. x) else None) ids

let serve_loopback () =
  reference_cpus := [ cpu 0; cpu 1 ];
  cpu_clock := true;
  let cfg = serve_config !seed in
  let prev = ref None in
  let setup_s, (pool, d0) =
    timed_setup
      ~before:(fun () -> Option.iter (fun (p, d) -> ignore (verify ~pass:(-1) cfg p d)) !prev)
      "serve.setup"
      (fun () ->
        let pool = serve_pool !seed in
        let d = boot cfg in
        prev := Some (pool, ready d 0);
        (pool, d))
  in
  ignore (verify ~pass:(-1) cfg pool (ready d0 0));
  let cur = ref None in
  let first_requests = ref [] in
  let prepare () = cur := Some (ready (boot cfg) per_pass) in
  let finish () =
    let d = Option.get !cur in
    let requests, _, daemon_words = verify ~pass:(-1) cfg pool d in
    if d.base = 0 then first_requests := requests;
    daemon_words
  in
  let entry _ = closed_loop (Option.get !cur) pool per_pass in
  if !trace = 0 then begin
    let ps = passes ~prepare ~finish ~budget:!seconds ~min_passes:3 ~first:0 entry in
    end_to_end ~setup_s ps
  end
  else begin
    let r =
      interleaved ~prepare ~finish ~budget:(!seconds /. 2.) [| (false, entry); (true, entry) |]
    in
    let ra = mode_rate r.(0) and rb = mode_rate r.(1) in
    layer "wall.runs_per_s" (median (List.map wall_rate r.(0)));
    layer "trace.runs_per_s" rb;
    layer "trace.overhead_pct" (pct (1. /. rb) (1. /. ra));
    (* Open-loop sweep on one daemon, traced. *)
    spans.Spans.on <- true;
    let duration = !seconds /. 2. /. float_of_int (List.length rates) in
    let total = List.fold_left (fun a r -> a + int_of_float (r *. duration)) 0 rates in
    let d = ready (boot cfg) total in
    let best = ref 0. in
    List.iter
      (fun rate ->
        let ids, drained = open_loop d pool ~rate ~duration in
        let lat = ms ids (fun i -> d.decided.(i) -. d.due.(i)) in
        let late = ms ids (fun i -> d.sent.(i) -. d.due.(i)) in
        let p99 = quantile 0.99 lat in
        (* The rate this step actually sustained: requests over the span
           from the first due time to the last decision. *)
        let achieved =
          match ids with
          | [] -> 0.
          | first :: _ ->
              float_of_int (List.length ids)
              /. (List.fold_left (fun a i -> Float.max a d.decided.(i)) 0. ids -. d.due.(first))
        in
        if drained && List.length lat = List.length ids && p99 <= p99_limit_ms then
          best := Float.max !best achieved;
        Printf.eprintf
          "open loop %.0f/s: %d requests, p50 %.3f ms, p99 %.3f ms, generator late p99 %.3f ms\n%!"
          rate (List.length ids) (median lat) p99 (quantile 0.99 late);
        if rate = reference_rate then begin
          layer "serve.latency_ms.p50" (median lat);
          layer "serve.latency_ms.p99" p99;
          layer "serve.gen_late_ms" (quantile 0.99 late);
          let ack = ms ids (fun i -> d.acked.(i) -. d.sent.(i)) in
          layer "serve.ack_ms.p50" (median ack);
          layer "serve.ack_ms.p99" (quantile 0.99 ack);
          layer "serve.decide_wait_ms.p50" (median (ms ids (fun i -> d.decided.(i) -. d.acked.(i))))
        end)
      rates;
    layer "serve.max_rate_per_s" !best;
    let _, outcome, _ = verify ~pass:(-1) cfg pool d in
    layer "serve.errors" (float_of_int d.errors);
    layer "serve.slow_disconnects" (float_of_int outcome.Server.slow_disconnects);
    (* The first closed-loop daemon's requests (ids 0 .. per_pass - 1, the
       same in every process at one seed), replayed in-process: the
       ledger step and the RPC parse, one span per call. *)
    let n_step = Spans.intern spans "ledger.step" and n_parse = Spans.intern spans "rpc.parse" in
    let e = Engine.create ~batch:1 ~jobs:1 cfg in
    List.iter
      (fun (subject, inputs) ->
        let sp = Spans.enter spans n_step ~parent:(-1) ~req:subject in
        ignore (Engine.submit e ~subject inputs);
        ignore (Engine.step e);
        Spans.leave spans sp)
      !first_requests;
    List.iter
      (fun r ->
        let line = submit_line pool (fst r) in
        let sp = Spans.enter spans n_parse ~parent:(-1) ~req:(fst r) in
        let ok = Result.is_ok (Rpc.parse line) in
        Spans.leave spans sp;
        if not ok then check_fail ~pass:(-1) "Rpc.parse rejected request %d" (fst r))
      !first_requests;
    spans.Spans.on <- false;
    layer "ledger.step_us" (mean_self 1e6 "ledger.step");
    layer "rpc.parse_ns" (mean_self 1e9 "rpc.parse");
    let st = Engine.stats e in
    let fd = float_of_int (max 1 st.Engine.decided) in
    layer "ledger.attempts_per_decision" (float_of_int st.Engine.attempts_total /. fd);
    layer "ledger.rounds_pipelined_per_decision" (float_of_int st.Engine.rounds_pipelined /. fd)
  end

(* ======================= entry point ======================= *)

let () =
  pin 0;
  (match !workload with
  | "check-full" -> check_full ()
  | "wide-n64" -> wide_n64 ()
  | "chaos-gst" -> chaos_gst ()
  | "serve-loopback" -> serve_loopback ()
  | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2);
  if !trace = 0 then
    metric "ok_ratio" "ratio"
      (float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted))
  else begin
    layer "trace.spans" (float_of_int spans.Spans.len);
    emit_layers ();
    ensure_out_dir ();
    Spans.write spans
      (Filename.concat out_dir (Printf.sprintf "spans-%s.csv" !workload))
  end;
  emit ()
