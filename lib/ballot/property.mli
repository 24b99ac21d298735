(** Validity properties as first-class values.

    Following Civit et al., "On the Validity of Consensus" (arXiv
    2301.04920), a validity property is the parameter that decides
    solvability — so it is data here, not code baked into the checker:
    an id, an admissibility predicate over (honest inputs, outputs), an
    optional mandated output, and the hierarchy edges to the properties
    it entails. The oracle ({!Vv_check.Oracle}), the baselines and the
    E21 campaign all quantify over values of this type.

    Conventions match {!Validity}: [honest_inputs] lists non-faulty
    preferences only; [outputs] lists, per honest node, its decision
    ([None] = undecided, which never violates validity). [t_tol] is the
    fault-tolerance budget [t] of the configuration under test — only
    the median instance reads it. *)

type t = {
  id : string;  (** stable name, used in CLI flags and violation labels *)
  description : string;
  admissible :
    tie:Tie_break.t ->
    t_tol:int ->
    honest_inputs:Option_id.t list ->
    outputs:Option_id.t option list ->
    bool;
      (** does this (inputs, outputs) pair satisfy the property? *)
  required_output :
    (tie:Tie_break.t -> honest_inputs:Option_id.t list -> Option_id.t option)
    option;
      (** when the property mandates a unique decision value, the value;
          [None] inner result = no mandate for these inputs *)
  stronger_than : string list;
      (** ids of properties this one entails (direct edges; {!implies}
          takes the reflexive-transitive closure) *)
}

val id : t -> string
val admissible :
  t ->
  tie:Tie_break.t ->
  t_tol:int ->
  honest_inputs:Option_id.t list ->
  outputs:Option_id.t option list ->
  bool

type verdict =
  | Exact  (** terminated, agreed, and admissible *)
  | Stall  (** safe (agreed and admissible so far) but some node undecided *)
  | Violation  (** decided outputs disagree or are inadmissible *)
(** One run judged against one property — the classification every
    campaign reports. *)

val verdict_label : verdict -> string
(** ["exact"], ["stall"] or ["violation"]. *)

val judge :
  t ->
  tie:Tie_break.t ->
  t_tol:int ->
  honest_inputs:Option_id.t list ->
  outputs:Option_id.t option list ->
  verdict
(** [Violation] when the decided outputs disagree or are not admissible —
    even if some node has not decided; otherwise [Stall] when some node
    is undecided; otherwise [Exact]. *)

val pp : t Fmt.t
(** Prints the id. *)

val equal : t -> t -> bool
(** Id equality. *)

val voting : t
(** Tie-break-aware voting validity — delegates to
    {!Validity.voting_validity_tb} and is byte-equivalent to it. *)

val voting_strict : t
(** Strict voting validity (Definition III.3 without tie-break) —
    delegates to {!Validity.voting_validity}. *)

val strong : t
(** Neiger's strong validity: every decided output is an honest input. *)

val weak : t
(** Unanimity validity: a unanimous honest electorate forces its value. *)

val interval : t
(** Melnyk-Wattenhofer interval validity over options read as integers:
    decided outputs lie within [min, max] of the honest inputs. *)

val median : t
(** Stolz-Wattenhofer median validity over options read as integers:
    decided outputs lie within [t_tol] positions of the median of the
    sorted honest multiset. *)

val all : t list
(** Every built-in instance, in CLI/report order:
    voting, voting-strict, strong, weak, interval, median. *)

val names : string list
(** Ids of {!all}, same order. *)

val find : string -> t option
(** Look up a built-in instance by id. *)

val of_name : string -> t option
(** Alias of {!find}. *)

val implies : t -> t -> bool
(** [implies p q]: does [p] entail [q] in the validity hierarchy?
    Reflexive-transitive closure of [stronger_than]. *)
