(* Splitmix64: a small, fast, high-quality deterministic PRNG.  We avoid
   [Stdlib.Random] so that every simulation in this repository is
   reproducible bit-for-bit across OCaml versions and runs.

   The 64-bit state lives unboxed in 8 bytes, read and written with
   [Bytes.get_int64_ne]/[set_int64_ne], so a draw allocates nothing: an
   [int64] record field would be boxed afresh on every step. *)

type t = Bytes.t

let[@inline] of_state z =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 z;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Derive an independent stream: a fresh generator seeded from this one. *)
let split t = of_state (next_int64 t)

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(* Two independent splitmix64 steps: hash the base seed on its own, fold
   the index into that hash, hash again.  Each step is a full 64-bit
   avalanche, so distinct (seed, index) pairs collide only if
   [hash(s1) lxor i1 = hash(s2) lxor i2] — unlike a plain
   [seed lxor (i * const)] mix.  Chaining [derive] builds seed trees
   (batch instance seeds, ledger slot/attempt seeds) whose leaves are
   independent of how many draws any sibling consumed. *)
let derive seed i = bits (create (bits (create seed) lxor i))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let r = ref (bits t) in
  while !r - (!r mod bound) + (bound - 1) < 0 do
    r := bits t
  done;
  !r mod bound

let float t =
  (* 53 random bits mapped to [0, 1). *)
  let b = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int b *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t l =
  match l with
  | [] -> invalid_arg "Rng.choose: empty list"
  | l -> List.nth l (int t (List.length l))

let sample_without_replacement t ~k ~n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  Array.to_list (Array.sub a 0 k)

let categorical t probabilities =
  (* Draw an index according to the given probability vector.  The vector is
     renormalised defensively so that slightly-off inputs still sample.  The
     fallback for when rounding pushes [u] past the accumulated mass must
     land on a cell that actually carries probability: returning the raw
     last index would sample a zero-probability outcome whenever the vector
     ends in zero-mass cells (e.g. [u = total] after the multiply rounds
     up), so the scan is capped at the last positive cell instead. *)
  let total = Array.fold_left ( +. ) 0.0 probabilities in
  if total <= 0.0 then invalid_arg "Rng.categorical: non-positive mass";
  let u = float t *. total in
  let last_positive =
    let rec find i = if probabilities.(i) > 0.0 then i else find (i - 1) in
    find (Array.length probabilities - 1)
  in
  let rec go i acc =
    if i >= last_positive then last_positive
    else
      let acc = acc +. probabilities.(i) in
      if u < acc then i else go (i + 1) acc
  in
  go 0 0.0
