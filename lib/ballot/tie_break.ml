(* The paper breaks count ties by "an established rule agreed by all nodes"
   (Definition III.1 remark).  Its running convention is: when A_G = B_G the
   nodes choose B, i.e. among tied options the later one in the option order
   wins.  We expose the rule as a value so protocols and checkers can be
   instantiated with either convention (and tested under both). *)

type t =
  | Prefer_larger  (** the paper's convention: tied counts -> larger option id wins *)
  | Prefer_smaller  (** tied counts -> smaller option id wins *)
  | Custom of (Option_id.t -> Option_id.t -> int)
      (** a total order on options; greater-in-order wins ties *)

let default = Prefer_larger

(* [wins t x y] decides whether option [x] beats option [y] when their
   counts are equal. *)
let wins t x y =
  match t with
  | Prefer_larger -> Option_id.compare x y > 0
  | Prefer_smaller -> Option_id.compare x y < 0
  | Custom cmp -> cmp x y > 0

(* Comparator ordering (option, count) pairs from winner to loser: higher
   count first, ties resolved by the rule.  Counts and option ids compare
   through the explicit monomorphic comparators — never polymorphic
   [compare], which would silently change meaning if either type stopped
   being a bare int. *)
let compare_counts t x cx y cy =
  let by_count = Int.compare cy cx in
  if by_count <> 0 then by_count
  else if Option_id.equal x y then 0
  else if wins t x y then -1
  else 1

let compare_ranked t (x, cx) (y, cy) = compare_counts t x cx y cy

let pp ppf = function
  | Prefer_larger -> Fmt.string ppf "prefer-larger"
  | Prefer_smaller -> Fmt.string ppf "prefer-smaller"
  | Custom _ -> Fmt.string ppf "custom"
