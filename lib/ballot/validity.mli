(** Executable forms of the paper's correctness properties (Section III-C).

    Conventions: [honest_inputs] lists the node preferences of the
    non-faulty nodes only; [outputs] lists, per honest node, its decision
    ([None] = has not decided / did not terminate). *)

val honest_tally : Option_id.t list -> Tally.t

val voting_preference :
  honest_inputs:Option_id.t list -> Option_id.t -> Option_id.t -> bool
(** Definition III.1: [A > B] iff strictly more non-faulty nodes support
    [A] than [B]. *)

val honest_plurality :
  tie:Tie_break.t -> honest_inputs:Option_id.t list -> Option_id.t option
(** The plurality of non-faulty inputs, ties resolved by the rule. *)

val honest_gap :
  tie:Tie_break.t -> honest_inputs:Option_id.t list -> int option
(** [A_G - B_G]. *)

val has_strict_plurality : honest_inputs:Option_id.t list -> bool
(** True when one option strictly beats all others among honest inputs. *)

val voting_verdicts :
  tie:Tie_break.t ->
  honest_inputs:Option_id.t list ->
  outputs:Option_id.t option list ->
  bool * bool
(** [(voting_validity, voting_validity_tb)] from a single tally of the
    honest inputs. *)

val voting_validity :
  tie:Tie_break.t ->
  honest_inputs:Option_id.t list ->
  outputs:Option_id.t option list ->
  bool
(** Definition III.3, strict form: when a strict honest plurality [A]
    exists, every decided output must be [A]. Vacuously true otherwise;
    undecided nodes never violate validity. *)

val voting_validity_tb :
  tie:Tie_break.t ->
  honest_inputs:Option_id.t list ->
  outputs:Option_id.t option list ->
  bool
(** Tie-break-aware form: the required output is the tie-break winner even
    when honest counts tie. *)

val strong_validity :
  honest_inputs:Option_id.t list -> outputs:Option_id.t option list -> bool
(** Neiger's strong validity: every decided output is some honest input. *)

val agreement : outputs:Option_id.t option list -> bool
(** All decided outputs are identical. *)

val termination : outputs:Option_id.t option list -> bool
(** Every honest node decided. *)

val integrity_allows : view:Tally.t -> output:Option_id.t -> bool
(** Definition III.2: false when some other option in [view] has at least as
    many votes as [output]. *)

val safety_guaranteed_admissible :
  tie:Tie_break.t ->
  honest_inputs:Option_id.t list ->
  outputs:Option_id.t option list ->
  bool
(** Definition V.1: decided outputs (if any) equal the honest plurality. *)

val differential_validity :
  delta:int ->
  honest_inputs:Option_id.t list ->
  outputs:Option_id.t option list ->
  bool
(** Fitzi-Garay delta-differential validity (Section II): no option beats a
    decided output by more than [delta] honest votes. Raises
    [Invalid_argument] on negative [delta]. *)
