(* A tally is the count of received votes per option: the |X_i| of the
   paper.  It implements the Sort utility of Algorithm 1 that splits a
   node's view into the top option A_i, runner-up B_i and the rest C_i. *)

module M = Map.Make (Option_id)

type t = int M.t

let empty = M.empty

let add_many t opt k =
  if k < 0 then invalid_arg "Tally.add_many: negative count";
  if k = 0 then t
  else
    M.update opt (function None -> Some k | Some c -> Some (c + k)) t

let add t opt = add_many t opt 1
let of_list opts = List.fold_left add empty opts

let of_counts pairs =
  List.fold_left (fun t (opt, k) -> add_many t opt k) empty pairs

let count t opt = match M.find_opt opt t with None -> 0 | Some c -> c
let total t = M.fold (fun _ c acc -> acc + c) t 0
let distinct t = M.cardinal t
let support t = M.bindings t
let options t = List.map fst (M.bindings t)
let is_empty t = M.is_empty t
let merge a b = M.union (fun _ x y -> Some (x + y)) a b

let ranked ~tie t =
  List.sort (Tie_break.compare_ranked tie) (M.bindings t)

type top = {
  a : Option_id.t;
  a_count : int;
  b : Option_id.t option;
  b_count : int;
  c_count : int;
}

let top ~tie t =
  match ranked ~tie t with
  | [] -> None
  | [ (a, a_count) ] -> Some { a; a_count; b = None; b_count = 0; c_count = 0 }
  | (a, a_count) :: (b, b_count) :: rest ->
      let c_count = List.fold_left (fun acc (_, c) -> acc + c) 0 rest in
      Some { a; a_count; b = Some b; b_count; c_count }

let plurality ~tie t =
  match top ~tie t with None -> None | Some { a; _ } -> Some a

let gap ~tie t =
  match top ~tie t with
  | None -> None
  | Some { a_count; b_count; _ } -> Some (a_count - b_count)

let pp ppf t =
  let pair ppf (opt, c) = Fmt.pf ppf "%a:%d" Option_id.pp opt c in
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ", ") pair) (M.bindings t)

let equal = M.equal Int.equal

(* The mutable tally: distinct options in first-seen order, in parallel
   int arrays grown on demand.  Ballots hold a handful of options, so a
   linear probe finds an option faster than a map or a hash table, and
   an [add] in steady state writes two ints. *)
module Counter = struct
  type t = {
    mutable opts : int array;
    mutable cnts : int array;
    mutable len : int;
    mutable sum : int;
  }

  let create () = { opts = [||]; cnts = [||]; len = 0; sum = 0 }

  let clear t =
    t.len <- 0;
    t.sum <- 0

  let add t opt =
    let o = Option_id.to_int opt in
    let j = ref 0 in
    while !j < t.len && t.opts.(!j) <> o do
      incr j
    done;
    let j = !j in
    if j < t.len then t.cnts.(j) <- t.cnts.(j) + 1
    else begin
      if j = Array.length t.opts then begin
        let cap = max 4 (2 * j) in
        let opts = Array.make cap 0 and cnts = Array.make cap 0 in
        Array.blit t.opts 0 opts 0 j;
        Array.blit t.cnts 0 cnts 0 j;
        t.opts <- opts;
        t.cnts <- cnts
      end;
      t.opts.(j) <- o;
      t.cnts.(j) <- 1;
      t.len <- j + 1
    end;
    t.sum <- t.sum + 1

  let total t = t.sum

  (* Whether slot [i] ranks before slot [j] under the tie rule. *)
  let before tie t i j =
    Tie_break.compare_counts tie
      (Option_id.of_int t.opts.(i))
      t.cnts.(i)
      (Option_id.of_int t.opts.(j))
      t.cnts.(j)
    < 0

  (* One scan keeping the best two slots: the ranking is a total order,
     so this picks [ranked]'s first two entries. *)
  let top ~tie t =
    if t.len = 0 then None
    else begin
      let a = ref 0 and b = ref (-1) in
      for j = 1 to t.len - 1 do
        if before tie t j !a then begin
          b := !a;
          a := j
        end
        else if !b < 0 || before tie t j !b then b := j
      done;
      let a_count = t.cnts.(!a) in
      let b, b_count =
        if !b < 0 then (None, 0)
        else (Some (Option_id.of_int t.opts.(!b)), t.cnts.(!b))
      in
      Some
        {
          a = Option_id.of_int t.opts.(!a);
          a_count;
          b;
          b_count;
          c_count = t.sum - a_count - b_count;
        }
    end
end
