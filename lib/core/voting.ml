(* The paper's voting protocols (Algorithms 1-4 and the CFT variant) as one
   state machine parameterised by a Phase-1 broadcast substrate and a
   {!Variant}.

   Phase 1 (Prepare)  — the speaker reliably broadcasts the subject through
                        [Sub] (Dolev-Strong / EIG / Phase-King for the BFT
                        algorithms, Plain for Algorithm 4 and CFT);
   Phase 2 (Vote)     — on outputting a valid subject every node broadcasts
                        its preference;
   Phase 3 (Propose)  — After_wait: once t+1 votes arrive, wait 2*delta_t,
                        Sort the ballot and propose A_i if A_i - B_i >
                        delta_P (Algorithm 1 Line 10-15);
                        Incremental: propose as soon as Inequality (14)
                        fires (Algorithm 3);
   Phase 4 (Decide)   — output on a quorum of matching proposes (N - t for
                        Algorithms 1/3/4, t + 1 for the safety-guaranteed
                        Algorithm 2).

   Sub-machine rounds are batched by the known delay bound delta so the
   lock-step substrates also run under Fixed/Uniform delays. *)

open Vv_sim
module Oid = Vv_ballot.Option_id
module Tally = Vv_ballot.Tally

type subject = int

(* Substrate-independent execution summary, so callers can dispatch over
   differently-typed Make instances and still get one result type. *)
type exec = {
  outputs : Oid.t option list;  (** honest nodes, in node-id order *)
  decision_rounds : int option list;  (** honest nodes, in node-id order *)
  trace : Trace.snapshot;  (** structured per-round history of the run *)
}

module Make (Sub : Vv_bb.Bb_intf.S) = struct
  type msg =
    | Prepare of Sub.msg
    | Vote of { subject : subject; choice : Oid.t }
    | Propose of { subject : subject; choice : Oid.t }

  type input = {
    variant : Variant.t;
    speaker : Types.node_id;
    subject : subject;  (** consulted at the speaker only *)
    preference : Oid.t;  (** this node's vote v_i *)
  }

  module P = struct
    type nonrec input = input
    type nonrec msg = msg
    type output = Oid.t

    type state = {
      variant : Variant.t;
      preference : Oid.t;
      delta : int;
      mutable bb : Sub.state;
      bb_buffer : Sub.msg Vv_bb.Bb_intf.inbox;
          (* arrivals of the current delta batch, in delivery order *)
      sub_outbox : Sub.msg Outbox.t;
          (* reusable scratch the sub-machine emits into; its entries are
             transfer-wrapped into [Prepare] after every sub-call *)
      mutable subject : subject option;  (* set once; may be Bb_intf.bottom *)
      votes : int array;
          (* first vote per sender: subject at [2 * src], choice at
             [2 * src + 1], the choice [no_choice] until one arrives *)
      proposes : int array;  (* first propose per sender, same layout *)
      (* Incrementally maintained tallies of the votes/proposes matching
         [subject] (meaningful once the subject is known), with dirty
         flags — so rounds without relevant arrivals skip the propose and
         decide evaluations entirely instead of re-folding the tables.
         This is what makes stalled executions (which burn the whole
         round budget) cheap.  Mutable counters: counting a vote writes
         two ints. *)
      vote_tally : Tally.Counter.t;
      mutable votes_dirty : bool;
      prop_tally : Tally.Counter.t;
      mutable prop_dirty : bool;
      mutable vote_deadline : int option;
      mutable propose_done : bool;
      mutable decided : Oid.t option;
    }

    let name = "voting/" ^ Sub.name

    (* Options are non-negative, so a negative choice marks an empty
       sender slot. *)
    let no_choice = -1

    (* Record [src]'s message unless it already sent one; true when
       recorded. *)
    let first_per_sender table src subject choice =
      if table.((2 * src) + 1) <> no_choice then false
      else begin
        table.(2 * src) <- subject;
        table.((2 * src) + 1) <- Oid.to_int choice;
        true
      end

    let equal_msg a b =
      match (a, b) with
      | Prepare a, Prepare b -> Sub.equal_msg a b
      | Vote a, Vote b -> a.subject = b.subject && Oid.equal a.choice b.choice
      | Propose a, Propose b ->
          a.subject = b.subject && Oid.equal a.choice b.choice
      | (Prepare _ | Vote _ | Propose _), _ -> false

    let init (ctx : Protocol.ctx) input ~outbox =
      let delta =
        match ctx.delta with
        | Some d -> d
        | None -> invalid_arg (name ^ ": requires a known delay bound")
      in
      let value = if ctx.me = input.speaker then Some input.subject else None in
      let sub_outbox = Outbox.create ~capacity:4 () in
      let bb =
        Sub.start ~n:ctx.n ~t:ctx.t ~me:ctx.me ~sender:input.speaker ~value
          ~outbox:sub_outbox
      in
      Outbox.transfer sub_outbox ~f:(fun m -> Prepare m) ~into:outbox;
      {
        variant = input.variant;
        preference = input.preference;
        delta;
        bb;
        bb_buffer = Vv_bb.Bb_intf.inbox_create ();
        sub_outbox;
        subject = None;
        votes = Array.make (2 * ctx.n) no_choice;
        proposes = Array.make (2 * ctx.n) no_choice;
        vote_tally = Tally.Counter.create ();
        votes_dirty = false;
        prop_tally = Tally.Counter.create ();
        prop_dirty = false;
        vote_deadline = None;
        propose_done = false;
        decided = None;
      }

    (* Count into [counter] the first votes per sender matching subject
       [s] — the from-scratch fold, used once when the subject becomes
       known (to cover messages that arrived early); thereafter the
       counters are maintained incrementally at ingest. *)
    let tally_for counter table s =
      Tally.Counter.clear counter;
      for src = 0 to (Array.length table / 2) - 1 do
        let choice = table.((2 * src) + 1) in
        if choice <> no_choice && table.(2 * src) = s then
          Tally.Counter.add counter (Oid.of_int choice)
      done

    (* A [Prepare]'s sub-machine message, for {!Vv_bb.Bb_intf.shared_decode}. *)
    let push_prepare ib src = function
      | Prepare b ->
          Vv_bb.Bb_intf.inbox_push ib src b;
          true
      | Vote _ | Propose _ -> false

    let step (ctx : Protocol.ctx) st ~round ~inbox ~outbox =
      let no_subject =
        match st.subject with None -> true | Some _ -> false
      in
      (* A batch boundary of local rounds 1 .. [Sub.rounds]. *)
      let bb_step =
        no_subject
        && round mod st.delta = 0
        && round >= st.delta
        && round <= Sub.rounds ~n:ctx.n ~t:ctx.t * st.delta
      in
      (* Phase 1's inbox: a shared window of Prepares is decoded once for
         every recipient; otherwise the ingest below copies this node's
         Prepares into its batch buffer. *)
      let bb_inbox =
        if bb_step then
          Vv_bb.Bb_intf.shared_decode inbox ~buffer:st.bb_buffer
            ~push:push_prepare
        else st.bb_buffer
      in
      (* Ingest — an indexed loop rather than [Inbox.iter] so a quiet
         round allocates no closure.  A shared decode covered every
         entry. *)
      if bb_inbox.Vv_bb.Bb_intf.stamp < 0 then
        for i = 0 to Inbox.length inbox - 1 do
          let src = Inbox.src inbox i in
          match Inbox.msg inbox i with
          | Prepare b -> (
              match st.subject with
              | None -> Vv_bb.Bb_intf.inbox_push st.bb_buffer src b
              | Some _ -> ())
          | Vote { subject; choice } ->
              if first_per_sender st.votes src subject choice then begin
                match st.subject with
                | Some s when subject = s ->
                    Tally.Counter.add st.vote_tally choice;
                    st.votes_dirty <- true
                | Some _ | None -> ()
              end
          | Propose { subject; choice } ->
              if first_per_sender st.proposes src subject choice then begin
                match st.subject with
                | Some s when subject = s ->
                    Tally.Counter.add st.prop_tally choice;
                    st.prop_dirty <- true
                | Some _ | None -> ()
              end
        done;
      (* Phase 1: progress the broadcast sub-machine (batched by delta). *)
      if bb_step then begin
        let lround = round / st.delta in
        let sub =
          Sub.step ~n:ctx.n ~t:ctx.t ~me:ctx.me st.bb ~lround
            ~inbox:bb_inbox ~outbox:st.sub_outbox
        in
        st.bb <- sub;
        Vv_bb.Bb_intf.inbox_clear st.bb_buffer;
        Outbox.transfer st.sub_outbox ~f:(fun m -> Prepare m) ~into:outbox;
        if lround = Sub.rounds ~n:ctx.n ~t:ctx.t then begin
          let s = Sub.result sub in
          st.subject <- Some s;
          if s >= 0 then begin
            (* Seed the cached tallies from everything that arrived before
               the subject was known. *)
            tally_for st.vote_tally st.votes s;
            tally_for st.prop_tally st.proposes s;
            st.votes_dirty <- true;
            st.prop_dirty <- true;
            (* Phase 2: a valid subject triggers the vote (Line 7-9). *)
            Outbox.broadcast outbox
              (Vote { subject = s; choice = st.preference })
          end
        end
      end;
      let tolerance = ctx.t in
      (* Phase 3: propose.  Everything below depends only on the cached
         ballot and (for After_wait) the pending deadline, so the arm is
         entered only when a relevant vote arrived this round or a
         deadline is armed — a quiet stalled round does no tally work. *)
      let deadline_armed =
        match st.vote_deadline with Some _ -> true | None -> false
      in
      (match st.subject with
      | Some s
        when s >= 0
             && (not st.propose_done)
             && (match st.decided with None -> true | Some _ -> false)
             && (st.votes_dirty || deadline_armed) ->
          let ballot = st.vote_tally in
          let tie = st.variant.Variant.tie in
          (match st.variant.Variant.propose with
          | Variant.After_wait ->
              if
                (not deadline_armed)
                && Tally.Counter.total ballot >= tolerance + 1
              then st.vote_deadline <- Some (round + (2 * st.delta));
              (match st.vote_deadline with
              | Some d when round >= d -> begin
                  st.propose_done <- true;
                  let dp = Variant.delta_p st.variant ~tolerance in
                  match Tally.Counter.top ~tie ballot with
                  | Some { Tally.a; a_count; b_count; _ }
                    when a_count - b_count > dp ->
                      Outbox.broadcast outbox
                        (Propose { subject = s; choice = a })
                  | Some _ | None -> ()
                end
              | Some _ | None -> ())
          | Variant.Incremental ->
              (* Inequality (14) depends only on the ballot: re-evaluate
                 only when a relevant vote arrived. *)
              if st.votes_dirty && Tally.Counter.total ballot >= tolerance + 1
              then begin
                let dp = Variant.delta_p st.variant ~tolerance in
                match Tally.Counter.top ~tie ballot with
                | Some { Tally.a; a_count; c_count; _ }
                  when Bounds.incremental_ready ~n:ctx.n ~delta_p:dp
                         ~a_i:a_count ~c_i:c_count ->
                    st.propose_done <- true;
                    Outbox.broadcast outbox (Propose { subject = s; choice = a })
                | Some _ | None -> ()
              end);
          st.votes_dirty <- false
      | Some _ | None -> ());
      (* Phase 4: decide on a quorum of matching proposes (Line 16-17).
         The quorum test depends only on the propose tally, so skip it on
         rounds where no relevant propose arrived. *)
      (match st.subject with
      | Some s
        when s >= 0 && st.prop_dirty
             && (match st.decided with None -> true | Some _ -> false) -> begin
          ignore s;
          st.prop_dirty <- false;
          let quorum = Variant.quorum_size st.variant ~n:ctx.n ~tolerance in
          match Tally.Counter.top ~tie:st.variant.Variant.tie st.prop_tally with
          | Some { Tally.a; a_count; _ } when a_count >= quorum ->
              st.decided <- Some a
          | Some _ | None -> ()
        end
      | Some _ | None -> ());
      st

    let output st = st.decided

    (* Inert states, for the engine's stalled-run fast-forward: [step] on
       an empty inbox is a permanent no-op exactly when the sub-machine
       has delivered a subject (Phase 1 never re-enters), no propose
       deadline is pending, and no unconsumed tally dirt remains — then
       Phases 3 and 4 are gated off at every future round.  A decided
       node trivially qualifies, as does one whose subject is invalid
       (s < 0 disables Phases 2-4 outright). *)
    let inert st =
      match st.decided with
      | Some _ -> true
      | None -> (
          match st.subject with
          | None -> false
          | Some s ->
              s < 0
              || ((not st.prop_dirty)
                 && (st.propose_done
                    || ((not st.votes_dirty)
                       &&
                       match st.vote_deadline with
                       | None -> true
                       | Some _ -> false))))

    (* The Section IV phase the node is in, for trace events. *)
    let phase st =
      match st.decided with
      | Some _ -> "decided"
      | None -> (
          if st.propose_done then "proposed"
          else
            match st.subject with
            | None -> "prepare"
            | Some s when s < 0 -> "no-subject"
            | Some _ -> "vote")
  end

  module E = Engine.Make (P)

  (* --- Adversary strategies over this message type --- *)

  (* First vote per honest sender observed in the current round's traffic
     (a broadcast appears once, as a row, or once per recipient;
     deduplicate by source).  The
     scan reads the indexed view directly, so rounds whose traffic carries
     no votes — the whole Phase-1 storm — allocate nothing here. *)
  let observed_votes (view : msg Adversary.view) =
    let len = view.Adversary.sent_len in
    let seen = ref None in
    for i = 0 to len - 1 do
      match view.Adversary.sent_msg i with
      | Vote { subject; choice } ->
          let tbl =
            match !seen with
            | Some tbl -> tbl
            | None ->
                let tbl = Hashtbl.create 16 in
                seen := Some tbl;
                tbl
          in
          let src = view.Adversary.sent_src i in
          if not (Hashtbl.mem tbl src) then Hashtbl.add tbl src (subject, choice)
      | Prepare _ | Propose _ -> ()
    done;
    match !seen with
    | None -> []
    | Some tbl ->
        Hashtbl.fold (fun src sv acc -> (src, sv) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  let broadcast_from_all (view : msg Adversary.view) m =
    List.concat_map
      (fun src ->
        List.init view.Adversary.n (fun dst -> { Adversary.src; dst; msg = m }))
      view.Adversary.byzantine

  (* Rank the observed honest ballot and return (subject, winner,
     runner-up); the runner-up defaults to the winner when unique. *)
  let observed_top2 ~tie votes =
    match votes with
    | [] -> None
    | (_, (s, _)) :: _ ->
        let ballot =
          Tally.of_list
            (List.filter_map
               (fun (_, (subj, choice)) -> if subj = s then Some choice else None)
               votes)
        in
        (match Tally.top ~tie ballot with
        | Some { Tally.a; b; _ } ->
            Some (s, a, Option.value b ~default:a)
        | None -> None)

  let adversary_of ?(tie = Vv_ballot.Tie_break.default) (spec : Strategy.t) :
      msg Adversary.t =
    match spec with
    | Strategy.Passive -> Adversary.passive
    | Strategy.Collude_second ->
        let acted = ref false in
        Adversary.named ~quiescent:(fun () -> true) "collude-second" (fun view ->
            if !acted then []
            else
              match observed_top2 ~tie (observed_votes view) with
              | None -> []
              | Some (s, _, second) ->
                  acted := true;
                  broadcast_from_all view (Vote { subject = s; choice = second }))
    | Strategy.Collude_fixed target ->
        let acted = ref false in
        Adversary.named ~quiescent:(fun () -> true) "collude-fixed" (fun view ->
            if !acted then []
            else
              match observed_votes view with
              | [] -> []
              | (_, (s, _)) :: _ ->
                  acted := true;
                  broadcast_from_all view
                    (Vote { subject = s; choice = Oid.of_int target }))
    | Strategy.Split_top2 ->
        let acted = ref false in
        Adversary.named ~quiescent:(fun () -> true) "split-top2" (fun view ->
            if !acted then []
            else
              match observed_top2 ~tie (observed_votes view) with
              | None -> []
              | Some (s, first, second) ->
                  acted := true;
                  List.concat_map
                    (fun src ->
                      List.init view.Adversary.n (fun dst ->
                          let choice = if dst mod 2 = 0 then first else second in
                          {
                            Adversary.src;
                            dst;
                            msg = Vote { subject = s; choice };
                          }))
                    view.Adversary.byzantine)
    | Strategy.Propose_second ->
        let acted = ref false in
        Adversary.named ~quiescent:(fun () -> true) "propose-second" (fun view ->
            if !acted then []
            else
              match observed_top2 ~tie (observed_votes view) with
              | None -> []
              | Some (s, _, second) ->
                  acted := true;
                  broadcast_from_all view (Vote { subject = s; choice = second })
                  @ broadcast_from_all view
                      (Propose { subject = s; choice = second }))
    | Strategy.Late_collude delay_rounds ->
        (* Observe the honest ballot, then sit on the colluding votes for
           [delay_rounds] rounds before releasing them. *)
        let pending = ref None in
        let acted = ref false in
        Adversary.named
          ~quiescent:(fun () ->
            !acted || match !pending with None -> true | Some _ -> false)
          "late-collude" (fun view ->
            (match (!pending, !acted) with
            | None, false -> (
                match observed_top2 ~tie (observed_votes view) with
                | Some (s, _, second) ->
                    pending := Some (view.Adversary.round + delay_rounds, s, second)
                | None -> ())
            | _ -> ());
            match !pending with
            | Some (release, s, second)
              when view.Adversary.round >= release && not !acted ->
                acted := true;
                broadcast_from_all view (Vote { subject = s; choice = second })
            | _ -> [])
    | Strategy.Random_votes seed ->
        let acted = ref false in
        let rng = Vv_prelude.Rng.create seed in
        Adversary.named ~quiescent:(fun () -> true) "random-votes" (fun view ->
            if !acted then []
            else
              let votes = observed_votes view in
              match votes with
              | [] -> []
              | (_, (s, _)) :: _ ->
                  acted := true;
                  let domain =
                    List.sort_uniq Oid.compare
                      (List.map (fun (_, (_, c)) -> c) votes)
                  in
                  List.concat_map
                    (fun src ->
                      let choice = Vv_prelude.Rng.choose rng domain in
                      List.init view.Adversary.n (fun dst ->
                          {
                            Adversary.src;
                            dst;
                            msg = Vote { subject = s; choice };
                          }))
                    view.Adversary.byzantine)
    | Strategy.Scripted actions ->
        (* Trigger on the first round honest votes appear; capture the
           subject and the live option set (distinct honest choices in
           option order) so every script index has a fixed meaning. *)
        let trigger view =
          match observed_votes view with
          | [] -> None
          | ((_, (s, _)) :: _) as votes ->
              let domain =
                List.sort_uniq Oid.compare
                  (List.filter_map
                     (fun (_, (subj, c)) -> if subj = s then Some c else None)
                     votes)
              in
              if domain = [] then None else Some (s, Array.of_list domain)
        in
        let live domain i =
          (* Clamp: scripts are enumerated for up to d options but must stay
             meaningful when fewer are live. *)
          domain.(min (max i 0) (Array.length domain - 1))
        in
        (* Broadcast along [view.reach] (not all of [n]) so plans stay legal
           under local broadcast and on sparse topologies. *)
        let reach_broadcast view m =
          List.concat_map
            (fun src ->
              List.map
                (fun dst -> { Adversary.src; dst; msg = m })
                (view.Adversary.reach src))
            view.Adversary.byzantine
        in
        let interp (s, domain) action view =
          match action with
          | Strategy.Skip -> []
          | Strategy.Vote_all i ->
              reach_broadcast view (Vote { subject = s; choice = live domain i })
          | Strategy.Vote_split (i, j) ->
              List.concat_map
                (fun src ->
                  List.map
                    (fun dst ->
                      let choice = live domain (if dst mod 2 = 0 then i else j) in
                      { Adversary.src; dst; msg = Vote { subject = s; choice } })
                    (view.Adversary.reach src))
                view.Adversary.byzantine
          | Strategy.Propose_all i ->
              reach_broadcast view (Propose { subject = s; choice = live domain i })
          | Strategy.Vote_and_propose (i, j) ->
              reach_broadcast view (Vote { subject = s; choice = live domain i })
              @ reach_broadcast view
                  (Propose { subject = s; choice = live domain j })
        in
        Adversary.of_script ~quiet_trigger:true
          ~name:(Fmt.str "%a" Strategy.pp_script actions)
          ~trigger ~interp actions

  (* One full run, summarised substrate-independently. *)
  let execute_checked cfg ~variant ~speaker ~subject ~preferences ~strategy =
    let inputs id =
      { variant; speaker; subject; preference = preferences id }
    in
    let adversary = adversary_of ~tie:variant.Variant.tie strategy in
    match E.run cfg ~inputs ~adversary () with
    | Error _ as e -> e
    | Ok res ->
        let honest = Config.honest_ids cfg in
        Ok
          {
            outputs = List.map (fun id -> res.E.outputs.(id)) honest;
            decision_rounds =
              List.map (fun id -> res.E.decision_round.(id)) honest;
            trace = res.E.trace;
          }

  let execute cfg ~variant ~speaker ~subject ~preferences ~strategy =
    match execute_checked cfg ~variant ~speaker ~subject ~preferences ~strategy with
    | Ok exec -> exec
    | Error (`Invalid_adversary reason) ->
        raise (Engine.Invalid_adversary reason)
end
