(** Deterministic tie-breaking rule for equal vote counts.

    The paper assumes all nodes share an established rule for ties
    (Definition III.1); its running convention is that [B] is chosen when
    [A_G = B_G]. Protocol state machines and validity checkers take the rule
    as a parameter so both conventions can be exercised. *)

type t =
  | Prefer_larger  (** the paper's convention: larger option id wins ties *)
  | Prefer_smaller
  | Custom of (Option_id.t -> Option_id.t -> int)
      (** total order; the greater option in the order wins ties *)

val default : t
(** [Prefer_larger], the paper's convention. *)

val wins : t -> Option_id.t -> Option_id.t -> bool
(** [wins t x y] is true when [x] beats [y] at equal counts. *)

val compare_ranked : t -> Option_id.t * int -> Option_id.t * int -> int
(** Orders (option, count) pairs from winner to loser: by descending count,
    ties resolved by the rule. *)

val compare_counts : t -> Option_id.t -> int -> Option_id.t -> int -> int
(** [compare_counts t x cx y cy] is [compare_ranked t (x, cx) (y, cy)]
    without building the pairs. *)

val pp : t Fmt.t
