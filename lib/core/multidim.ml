(* Multi-dimensional voting validity (the paper's future-work direction,
   citing Mendes et al. [25]).

   A d-dimensional subject asks every node for a vector of preferences
   (e.g. an autonomous-fleet decision = (manoeuvre, speed-class, lane)).
   We run one voting-validity instance per coordinate, with independent
   seeds derived from a session seed, and require coordinate-wise voting
   validity: each coordinate of the common output vector must be the exact
   plurality of the honest inputs' corresponding coordinates.

   Unlike multidimensional *approximate* agreement, where coordinates
   interact through convexity, plurality aggregation is separable, so
   coordinate-wise composition preserves every guarantee of the underlying
   protocol — the point of this module is packaging, bookkeeping and the
   combined verdicts. *)

module Oid = Vv_ballot.Option_id

type outcome = {
  per_coordinate : Runner.outcome list;
  output_vector : Oid.t option list;
      (** the agreed value per coordinate; [None] where that coordinate
          stalled *)
  termination : bool;  (** every coordinate terminated *)
  agreement : bool;
  voting_validity : bool;  (** coordinate-wise Definition III.3 *)
  safety_admissible : bool;
}

(* [inputs] is one preference vector per honest node; all vectors must
   share the same dimension d >= 1. *)
let run ?(protocol = Runner.Algo1) ?(strategy = Strategy.Collude_second)
    ?(bb = Vv_bb.Bb.default) ?(tie = Vv_ballot.Tie_break.default)
    ?(seed = 0xd1) ~t ~f (inputs : Oid.t list list) =
  let d =
    match inputs with
    | [] -> invalid_arg "Multidim.run: no voters"
    | v :: rest ->
        let d = List.length v in
        if d = 0 then invalid_arg "Multidim.run: zero-dimensional subject";
        if not (List.for_all (fun w -> List.length w = d) rest) then
          invalid_arg "Multidim.run: ragged preference vectors";
        d
  in
  let coordinate k = List.map (fun v -> List.nth v k) inputs in
  let per_coordinate =
    List.init d (fun k ->
        Runner.simple ~protocol ~strategy ~bb ~tie ~seed:(seed + (7919 * k))
          ~t ~f (coordinate k))
  in
  let first_output (o : Runner.outcome) =
    match List.filter_map Fun.id o.Runner.outputs with
    | v :: _ when o.Runner.termination -> Some v
    | _ -> None
  in
  {
    per_coordinate;
    output_vector = List.map first_output per_coordinate;
    termination = List.for_all (fun o -> o.Runner.termination) per_coordinate;
    agreement = List.for_all (fun o -> o.Runner.agreement) per_coordinate;
    voting_validity =
      List.for_all (fun o -> o.Runner.voting_validity) per_coordinate;
    safety_admissible =
      List.for_all (fun o -> o.Runner.voting_validity_tb) per_coordinate;
  }
