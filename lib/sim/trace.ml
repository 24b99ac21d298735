(* Structured per-run traces.

   The engine records, while it runs, the counters of every executed round
   (send counts, adversary injections, and — under the chaos substrate —
   dropped/duplicated/retransmitted deliveries) into packed int columns,
   plus every per-node phase transition reported by the protocol's
   [Protocol.S.phase] and every node's decide round.
   At the end of the run the accumulated history is frozen into an
   immutable [snapshot], the one per-run accounting record: message and
   round counts, the stall verdict and the chaos counters all live here,
   and callers get a value they can store, diff, and emit (CSV/JSON)
   without worrying about the engine mutating it behind their back.

   The [chaos] flag records whether the run had the substrate (or
   retransmission) engaged; the CSV/JSON emitters add the chaos columns
   only then, so traces of plain runs stay byte-identical to the
   pre-substrate format. *)

module Json = Vv_prelude.Json

type round_record = {
  round : int;
  honest_sent : int;  (** honest point-to-point deliveries sent this round *)
  byz_sent : int;  (** adversary deliveries injected this round *)
  dropped : int;  (** deliveries destroyed by the chaos substrate *)
  duplicated : int;  (** extra copies injected by the substrate *)
  retransmitted : int;  (** retransmission attempts fired this round *)
  newly_decided : Types.node_id list;  (** ascending *)
  decided_total : int;  (** cumulative honest decisions after this round *)
}

type phase_event = {
  at_round : int;
  node : Types.node_id;
  phase : string;  (** the phase entered *)
}

type snapshot = {
  protocol : string;
  adversary : string;
  n : int;
  t : int;
  round_counts : int array;
      (* [stride chaos] counters per executed round, round-major:
         honest_sent, byz_sent, then (chaos only) dropped, duplicated,
         retransmitted *)
  phases : phase_event list;  (** chronological, then by node id *)
  decide_rounds : (Types.node_id * int) list;  (** ascending by node id *)
  honest_msgs : int;
  byz_msgs : int;
  dropped_msgs : int;
  dup_msgs : int;
  retrans_msgs : int;
  total_rounds : int;  (** rounds executed (last round index + 1) *)
  stalled : bool;
  chaos : bool;  (** substrate or retransmission engaged for this run *)
}

let stride chaos = if chaos then 5 else 2

(* --- builder (engine-internal mutability, frozen by [snapshot]) ---

   One builder serves many runs: [reset] re-arms it, and its columns keep
   their capacity, so recording a round writes into an int array instead
   of allocating a record and a cons cell. *)

type builder = {
  mutable b_protocol : string;
  mutable b_adversary : string;
  mutable b_n : int;
  mutable b_t : int;
  mutable b_chaos : bool;
  mutable b_counts : int array;  (* round-major, [stride b_chaos] per round *)
  mutable b_rounds : int;  (* rounds recorded *)
  mutable b_phases : phase_event list;  (* reversed *)
  mutable b_decide : int array;  (* decide round per node, -1 = undecided *)
  mutable b_honest : int;
  mutable b_byz : int;
  mutable b_dropped : int;
  mutable b_dup : int;
  mutable b_retrans : int;
}

let builder () =
  {
    b_protocol = "";
    b_adversary = "";
    b_n = 0;
    b_t = 0;
    b_chaos = false;
    b_counts = [||];
    b_rounds = 0;
    b_phases = [];
    b_decide = [||];
    b_honest = 0;
    b_byz = 0;
    b_dropped = 0;
    b_dup = 0;
    b_retrans = 0;
  }

let reset b ~chaos ~protocol ~adversary ~n ~t =
  b.b_protocol <- protocol;
  b.b_adversary <- adversary;
  b.b_n <- n;
  b.b_t <- t;
  b.b_chaos <- chaos;
  b.b_rounds <- 0;
  b.b_phases <- [];
  if Array.length b.b_decide < n then b.b_decide <- Array.make n (-1)
  else Array.fill b.b_decide 0 n (-1);
  b.b_honest <- 0;
  b.b_byz <- 0;
  b.b_dropped <- 0;
  b.b_dup <- 0;
  b.b_retrans <- 0

let record_phase b ~round ~node ~phase =
  b.b_phases <- { at_round = round; node; phase } :: b.b_phases

let record_decide b ~round ~node = b.b_decide.(node) <- round

(* All counters are mandatory: the engine calls this once per round, and
   optional-argument wrapping would allocate three [Some] blocks per call
   on an otherwise allocation-free path. *)
let record_round b ~honest_sent ~byz_sent ~dropped ~duplicated ~retransmitted
    =
  let k = stride b.b_chaos in
  let at = b.b_rounds * k in
  if at + k > Array.length b.b_counts then begin
    let grown = Array.make (max 64 (2 * Array.length b.b_counts)) 0 in
    Array.blit b.b_counts 0 grown 0 at;
    b.b_counts <- grown
  end;
  b.b_counts.(at) <- honest_sent;
  b.b_counts.(at + 1) <- byz_sent;
  if b.b_chaos then begin
    b.b_counts.(at + 2) <- dropped;
    b.b_counts.(at + 3) <- duplicated;
    b.b_counts.(at + 4) <- retransmitted
  end;
  b.b_rounds <- b.b_rounds + 1;
  b.b_honest <- b.b_honest + honest_sent;
  b.b_byz <- b.b_byz + byz_sent;
  b.b_dropped <- b.b_dropped + dropped;
  b.b_dup <- b.b_dup + duplicated;
  b.b_retrans <- b.b_retrans + retransmitted

let snapshot b ~stalled =
  let decide_rounds =
    let acc = ref [] in
    for node = b.b_n - 1 downto 0 do
      let r = b.b_decide.(node) in
      if r >= 0 then acc := (node, r) :: !acc
    done;
    !acc
  in
  {
    protocol = b.b_protocol;
    adversary = b.b_adversary;
    n = b.b_n;
    t = b.b_t;
    round_counts = Array.sub b.b_counts 0 (b.b_rounds * stride b.b_chaos);
    phases = List.rev b.b_phases;
    decide_rounds;
    honest_msgs = b.b_honest;
    byz_msgs = b.b_byz;
    dropped_msgs = b.b_dropped;
    dup_msgs = b.b_dup;
    retrans_msgs = b.b_retrans;
    total_rounds = b.b_rounds;
    stalled;
    chaos = b.b_chaos;
  }

(* --- queries --- *)

let messages_total s = s.honest_msgs + s.byz_msgs

let decide_round s node = List.assoc_opt node s.decide_rounds

let phases_of s node = List.filter (fun e -> e.node = node) s.phases

(* Unpack the per-round records: counters from [round_counts], decisions
   from [decide_rounds] (each node decides at most once). *)
let rounds s =
  let k = stride s.chaos in
  let decided = Array.make s.total_rounds [] in
  List.iter
    (fun (node, r) -> decided.(r) <- node :: decided.(r))
    (List.rev s.decide_rounds);
  let totals = Array.make s.total_rounds 0 in
  let total = ref 0 in
  Array.iteri
    (fun r ids ->
      total := !total + List.length ids;
      totals.(r) <- !total)
    decided;
  List.init s.total_rounds (fun round ->
      let c i = s.round_counts.((round * k) + i) in
      {
        round;
        honest_sent = c 0;
        byz_sent = c 1;
        dropped = (if s.chaos then c 2 else 0);
        duplicated = (if s.chaos then c 3 else 0);
        retransmitted = (if s.chaos then c 4 else 0);
        newly_decided = decided.(round);
        decided_total = totals.(round);
      })

(* --- emitters --- *)

let csv_header = "round,honest_sent,byz_sent,newly_decided,decided_total"

let csv_header_chaos =
  "round,honest_sent,byz_sent,dropped,duplicated,retransmitted,\
   newly_decided,decided_total"

let to_csv s =
  let ids l = String.concat ";" (List.map string_of_int l) in
  let line (r : round_record) =
    if s.chaos then
      Fmt.str "%d,%d,%d,%d,%d,%d,%s,%d" r.round r.honest_sent r.byz_sent
        r.dropped r.duplicated r.retransmitted (ids r.newly_decided)
        r.decided_total
    else
      Fmt.str "%d,%d,%d,%s,%d" r.round r.honest_sent r.byz_sent
        (ids r.newly_decided) r.decided_total
  in
  let header = if s.chaos then csv_header_chaos else csv_header in
  String.concat "\n" (header :: List.map line (rounds s)) ^ "\n"

let round_to_json ~chaos (r : round_record) =
  Json.Obj
    ([
       ("round", Json.Int r.round);
       ("honest_sent", Json.Int r.honest_sent);
       ("byz_sent", Json.Int r.byz_sent);
     ]
    @ (if chaos then
         [
           ("dropped", Json.Int r.dropped);
           ("duplicated", Json.Int r.duplicated);
           ("retransmitted", Json.Int r.retransmitted);
         ]
       else [])
    @ [
        ("newly_decided", Json.List (List.map (fun i -> Json.Int i) r.newly_decided));
        ("decided_total", Json.Int r.decided_total);
      ])

let to_json s =
  Json.Obj
    ([
       ("protocol", Json.String s.protocol);
       ("adversary", Json.String s.adversary);
       ("n", Json.Int s.n);
       ("t", Json.Int s.t);
       ("total_rounds", Json.Int s.total_rounds);
       ("stalled", Json.Bool s.stalled);
       ("honest_msgs", Json.Int s.honest_msgs);
       ("byz_msgs", Json.Int s.byz_msgs);
     ]
    @ (if s.chaos then
         [
           ("dropped_msgs", Json.Int s.dropped_msgs);
           ("dup_msgs", Json.Int s.dup_msgs);
           ("retrans_msgs", Json.Int s.retrans_msgs);
         ]
       else [])
    @ [
        ( "decide_rounds",
          Json.Obj
            (List.map
               (fun (node, r) -> (string_of_int node, Json.Int r))
               s.decide_rounds) );
        ( "phases",
          Json.List
            (List.map
               (fun e ->
                 Json.Obj
                   [
                     ("round", Json.Int e.at_round);
                     ("node", Json.Int e.node);
                     ("phase", Json.String e.phase);
                   ])
               s.phases) );
        ("rounds", Json.List (List.map (round_to_json ~chaos:s.chaos) (rounds s)));
      ])

let pp ppf s =
  Fmt.pf ppf "%s vs %s: %d rounds, msgs(honest=%d byz=%d), stalled=%b"
    s.protocol s.adversary s.total_rounds s.honest_msgs s.byz_msgs s.stalled;
  if s.chaos then
    Fmt.pf ppf ", chaos(dropped=%d dup=%d retrans=%d)" s.dropped_msgs
      s.dup_msgs s.retrans_msgs
