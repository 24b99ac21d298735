(* Approval voting with voting validity (extension).

   Parhami's taxonomy [16] — which the paper cites for the plurality
   scheme — also covers approval voting: each voter endorses a *set* of
   acceptable options and the option with the most endorsements wins.  The
   paper's machinery transfers: a Byzantine node can add at most t bogus
   endorsements to any single option and remove none, so the Property-2
   argument gives exactness whenever the honest endorsement gap between
   the winner and the runner-up exceeds t (delta_P = 0, quorum N - t), and
   a safety-guaranteed variant needs a gap above 2t.

   Structurally a sibling of Voting.Make: Phase 1 broadcasts the subject
   through a BB substrate; Phase 2 broadcasts approval sets; Phase 3
   proposes the local endorsement leader after the 2*delta wait; Phase 4
   decides on a quorum of matching proposes. *)

open Vv_sim
module Oid = Vv_ballot.Option_id
module Tally = Vv_ballot.Tally

type subject = int

type exec = { outputs : Oid.t option list; trace : Trace.snapshot }

(* The honest-endorsement analogue of Definition III.3. *)
let honest_leader ~tie approvals =
  let tally =
    List.fold_left
      (fun acc set -> List.fold_left Tally.add acc (List.sort_uniq Oid.compare set))
      Tally.empty approvals
  in
  Tally.top ~tie tally

let approval_validity ~tie ~honest_approvals ~outputs =
  match honest_leader ~tie honest_approvals with
  | Some { Tally.a; a_count; b_count; _ } when a_count > b_count ->
      List.for_all
        (function None -> true | Some v -> Oid.equal v a)
        outputs
  | Some _ | None -> true

module Make (Sub : Vv_bb.Bb_intf.S) = struct
  type msg =
    | Prepare of Sub.msg
    | Approve of { subject : subject; choices : Oid.t list }
    | Propose of { subject : subject; choice : Oid.t }

  type input = {
    speaker : Types.node_id;
    subject : subject;
    approvals : Oid.t list;  (** non-empty set of endorsed options *)
    quorum_gap : int;  (** delta_P: 0 for BFT, t for safety-guaranteed *)
    tie : Vv_ballot.Tie_break.t;
  }

  module P = struct
    type nonrec input = input
    type nonrec msg = msg
    type output = Oid.t

    type state = {
      cfg : input;
      delta : int;
      bb_rounds : int;
      mutable bb : Sub.state;
      bb_buffer : Sub.msg Vv_bb.Bb_intf.inbox;
      sub_outbox : Sub.msg Outbox.t;  (* reusable sub-machine scratch *)
      mutable subject : subject option;
      ballots : (Types.node_id, subject * Oid.t list) Hashtbl.t;
      proposes : (Types.node_id, subject * Oid.t) Hashtbl.t;
      (* Cached aggregates over the tables, maintained incrementally at
         ingest once the subject is known (see Voting for the rationale:
         stalled rounds must not re-fold the tables). *)
      mutable endorse_tally : Tally.t;
      mutable senders : int;  (* ballots matching the subject *)
      mutable prop_tally : Tally.t;
      mutable prop_dirty : bool;
      mutable deadline : int option;
      mutable proposed : bool;
      mutable decided : Oid.t option;
    }

    let name = "approval/" ^ Sub.name

    let equal_msg a b =
      match (a, b) with
      | Prepare a, Prepare b -> Sub.equal_msg a b
      | Approve a, Approve b ->
          a.subject = b.subject && List.equal Oid.equal a.choices b.choices
      | Propose a, Propose b ->
          a.subject = b.subject && Oid.equal a.choice b.choice
      | (Prepare _ | Approve _ | Propose _), _ -> false

    let init (ctx : Protocol.ctx) cfg ~outbox =
      if cfg.approvals = [] then
        invalid_arg "Approval: empty approval set";
      let delta =
        match ctx.delta with
        | Some d -> d
        | None -> invalid_arg (name ^ ": requires a known delay bound")
      in
      let value = if ctx.me = cfg.speaker then Some cfg.subject else None in
      let sub_outbox = Outbox.create () in
      let bb =
        Sub.start ~n:ctx.n ~t:ctx.t ~me:ctx.me ~sender:cfg.speaker ~value
          ~outbox:sub_outbox
      in
      Outbox.transfer sub_outbox ~f:(fun m -> Prepare m) ~into:outbox;
      {
        cfg;
        delta;
        bb_rounds = Sub.rounds ~n:ctx.n ~t:ctx.t;
        bb;
        bb_buffer = Vv_bb.Bb_intf.inbox_create ();
        sub_outbox;
        subject = None;
        ballots = Hashtbl.create 16;
        proposes = Hashtbl.create 16;
        endorse_tally = Tally.empty;
        senders = 0;
        prop_tally = Tally.empty;
        prop_dirty = false;
        deadline = None;
        proposed = false;
        decided = None;
      }

    let add_ballot acc choices =
      List.fold_left Tally.add acc (List.sort_uniq Oid.compare choices)

    (* From-scratch folds, used once when the subject becomes known. *)
    let endorsements st s =
      Hashtbl.fold
        (fun _src (subj, choices) acc ->
          if subj = s then add_ballot acc choices else acc)
        st.ballots Tally.empty

    let senders_for st s =
      Hashtbl.fold
        (fun _src (subj, _) acc -> if subj = s then acc + 1 else acc)
        st.ballots 0

    let propose_tally st s =
      Hashtbl.fold
        (fun _src (subj, choice) acc ->
          if subj = s then Tally.add acc choice else acc)
        st.proposes Tally.empty

    let step (ctx : Protocol.ctx) st ~round ~inbox ~outbox =
      Inbox.iter
        (fun src m ->
          match m with
          | Prepare b ->
              if st.subject = None then Vv_bb.Bb_intf.inbox_push st.bb_buffer src b
          | Approve { subject; choices } ->
              if not (Hashtbl.mem st.ballots src) then begin
                Hashtbl.add st.ballots src (subject, choices);
                match st.subject with
                | Some s when subject = s ->
                    st.endorse_tally <- add_ballot st.endorse_tally choices;
                    st.senders <- st.senders + 1
                | Some _ | None -> ()
              end
          | Propose { subject; choice } ->
              if not (Hashtbl.mem st.proposes src) then begin
                Hashtbl.add st.proposes src (subject, choice);
                match st.subject with
                | Some s when subject = s ->
                    st.prop_tally <- Tally.add st.prop_tally choice;
                    st.prop_dirty <- true
                | Some _ | None -> ()
              end)
        inbox;
      if st.subject = None && round mod st.delta = 0 then begin
        let lround = round / st.delta in
        if lround >= 1 && lround <= st.bb_rounds then begin
          let sub =
            Sub.step ~n:ctx.n ~t:ctx.t ~me:ctx.me st.bb ~lround
              ~inbox:st.bb_buffer ~outbox:st.sub_outbox
          in
          st.bb <- sub;
          Vv_bb.Bb_intf.inbox_clear st.bb_buffer;
          Outbox.transfer st.sub_outbox ~f:(fun m -> Prepare m) ~into:outbox;
          if lround = st.bb_rounds then begin
            let s = Sub.result sub in
            st.subject <- Some s;
            if s >= 0 then begin
              st.endorse_tally <- endorsements st s;
              st.senders <- senders_for st s;
              st.prop_tally <- propose_tally st s;
              st.prop_dirty <- true;
              Outbox.broadcast outbox
                (Approve { subject = s; choices = st.cfg.approvals })
            end
          end
        end
      end;
      (match st.subject with
      | Some s when s >= 0 && (not st.proposed) && st.decided = None ->
          if st.deadline = None && st.senders >= ctx.t + 1 then
            st.deadline <- Some (round + (2 * st.delta));
          (match st.deadline with
          | Some d when round >= d -> begin
              st.proposed <- true;
              match Tally.top ~tie:st.cfg.tie st.endorse_tally with
              | Some { Tally.a; a_count; b_count; _ }
                when a_count - b_count > st.cfg.quorum_gap ->
                  Outbox.broadcast outbox (Propose { subject = s; choice = a })
              | Some _ | None -> ()
            end
          | Some _ | None -> ())
      | Some _ | None -> ());
      (match st.subject with
      | Some s when s >= 0 && st.decided = None && st.prop_dirty -> begin
          ignore s;
          st.prop_dirty <- false;
          match Tally.ranked ~tie:st.cfg.tie st.prop_tally with
          | (choice, c) :: _ when c >= ctx.n - ctx.t -> st.decided <- Some choice
          | _ -> ()
        end
      | Some _ | None -> ());
      st

    let output st = st.decided

    (* Conservative: approval runs are not fast-forwarded. *)
    let inert _ = false

    let phase st =
      if st.decided <> None then "decided"
      else if st.proposed then "proposed"
      else
        match st.subject with
        | None -> "prepare"
        | Some s when s < 0 -> "no-subject"
        | Some _ -> "approve"
  end

  module E = Engine.Make (P)

  (* Colluding adversary: endorse the honest runner-up (and only it). *)
  let collude_second ?(tie = Vv_ballot.Tie_break.default) () :
      msg Adversary.t =
    let acted = ref false in
    Adversary.named "approval-collude-second" (fun view ->
        if !acted then []
        else
          let seen = Hashtbl.create 16 in
          for i = 0 to view.Adversary.sent_len - 1 do
            match view.Adversary.sent_msg i with
            | Approve { subject; choices } ->
                let src = view.Adversary.sent_src i in
                if not (Hashtbl.mem seen src) then
                  Hashtbl.add seen src (subject, choices)
            | Prepare _ | Propose _ -> ()
          done;
          let ballots =
            Hashtbl.fold (fun _ b acc -> b :: acc) seen []
            |> List.sort (fun (s1, c1) (s2, c2) ->
                   match Int.compare s1 s2 with
                   | 0 -> List.compare Oid.compare c1 c2
                   | c -> c)
          in
          match ballots with
          | [] -> []
          | (s, _) :: _ -> (
              let approvals = List.map snd ballots in
              match honest_leader ~tie approvals with
              | Some { Tally.b = Some b; _ } ->
                  acted := true;
                  List.concat_map
                    (fun src ->
                      List.init view.Adversary.n (fun dst ->
                          {
                            Adversary.src;
                            dst;
                            msg = Approve { subject = s; choices = [ b ] };
                          }))
                    view.Adversary.byzantine
              | Some _ | None -> []))

  let execute cfg ~speaker ~subject ~approvals ~quorum_gap
      ?(tie = Vv_ballot.Tie_break.default) ~collude () =
    let inputs id =
      { speaker; subject; approvals = approvals id; quorum_gap; tie }
    in
    let adversary =
      if collude then collude_second ~tie () else Adversary.passive
    in
    let res = E.run_exn cfg ~inputs ~adversary () in
    { outputs = E.honest_outputs res; trace = res.E.trace }
end
