(** Structured, immutable per-run traces.

    The engine accumulates a trace while it runs — per-round send counts,
    adversary injections, chaos-substrate activity (dropped / duplicated /
    retransmitted deliveries), per-node phase transitions (as reported by
    {!Protocol.S.phase}) and decide rounds — and freezes it into a
    [snapshot] on completion. The snapshot is the only per-run accounting
    record (message and round counts, the stall verdict, the chaos
    counters): one value per run, safe to store and aggregate, with CSV
    and JSON emitters.

    Runs without the chaos substrate ([chaos = false]) emit exactly the
    pre-substrate CSV/JSON shape — the chaos columns appear only when the
    run had the substrate or retransmission engaged.

    {b Packed representation.} A snapshot does not hold one record per
    round. Its per-round counters live in one int array,
    [round_counts], two ints per executed round (honest_sent, byz_sent)
    or five under chaos (then dropped, duplicated, retransmitted), in
    round order. Which nodes decided in a round, and how many had decided
    by its end, follow from [decide_rounds]. The {!rounds} accessor
    unpacks both into {!round_record}s on demand, and the emitters read
    the records through it, so their output is unchanged. *)

(** One executed round, as unpacked by {!rounds}. *)
type round_record = {
  round : int;
  honest_sent : int;  (** honest deliveries sent this round *)
  byz_sent : int;  (** adversary deliveries injected this round *)
  dropped : int;  (** deliveries destroyed by the chaos substrate *)
  duplicated : int;  (** extra copies injected by the substrate *)
  retransmitted : int;  (** retransmission attempts fired this round *)
  newly_decided : Types.node_id list;  (** ascending *)
  decided_total : int;  (** cumulative decisions after this round *)
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
      (** packed per-round counters: 2 per executed round (honest_sent,
          byz_sent), 5 when [chaos] (then dropped, duplicated,
          retransmitted); read them through {!rounds} *)
  phases : phase_event list;  (** chronological, ties by node id *)
  decide_rounds : (Types.node_id * int) list;  (** ascending by node id *)
  honest_msgs : int;
  byz_msgs : int;
  dropped_msgs : int;
  dup_msgs : int;
  retrans_msgs : int;
  total_rounds : int;
      (** number of rounds executed (indices 0 .. [total_rounds] - 1): at
          most [Config.max_rounds], and exactly [max_rounds] on stalled
          runs *)
  stalled : bool;
      (** [max_rounds] elapsed with undecided honest nodes — an admissible
          outcome for safety-guaranteed protocols (Def. V.1) *)
  chaos : bool;  (** substrate or retransmission engaged for this run *)
}

(** {1 Builder — used by the engine while a run is in flight}

    A builder is reusable: {!reset} re-arms it for the next run and keeps
    the capacity of its columns, so an engine that keeps one builder per
    domain records rounds without allocating. *)

type builder

val builder : unit -> builder
(** An empty builder; {!reset} it before the first run. *)

val reset :
  builder ->
  chaos:bool ->
  protocol:string ->
  adversary:string ->
  n:int ->
  t:int ->
  unit
(** Start a new run. Set [chaos] when the run goes through the chaos
    substrate or a retransmission policy, which switches the snapshot and
    the emitters to the extended schema. *)

val record_phase : builder -> round:int -> node:Types.node_id -> phase:string -> unit

val record_decide : builder -> round:int -> node:Types.node_id -> unit
(** At most once per node and run. *)

val record_round :
  builder ->
  honest_sent:int ->
  byz_sent:int ->
  dropped:int ->
  duplicated:int ->
  retransmitted:int ->
  unit
(** Record the next round: rounds are recorded consecutively from 0. The
    chaos counters are mandatory (pass [0] outside the substrate): one
    call per round, and optional-argument wrapping would allocate on the
    engine's hot path. *)

val snapshot : builder -> stalled:bool -> snapshot
(** Freeze. The snapshot shares nothing mutable with the builder, so the
    builder may be reset and reused afterwards. *)

(** {1 Queries} *)

val messages_total : snapshot -> int
val decide_round : snapshot -> Types.node_id -> int option
val phases_of : snapshot -> Types.node_id -> phase_event list

val rounds : snapshot -> round_record list
(** One record per executed round, ascending by round: the counters
    unpacked from [round_counts], [newly_decided] and [decided_total]
    derived from [decide_rounds]. Allocates the list on every call. *)

(** {1 Emitters} *)

val csv_header : string
(** Header of plain ([chaos = false]) traces. *)

val csv_header_chaos : string
(** Header of chaos traces: adds [dropped,duplicated,retransmitted]. *)

val to_csv : snapshot -> string
(** One line per executed round:
    [round,honest_sent,byz_sent,newly_decided,decided_total] where
    [newly_decided] is a [;]-separated id list — with the chaos columns
    spliced in after [byz_sent] when the snapshot has [chaos = true]. *)

val to_json : snapshot -> Vv_prelude.Json.t

val pp : Format.formatter -> snapshot -> unit
