(* Phase-King Byzantine Broadcast (unauthenticated, polynomial messages).

   Round 0: the designated sender broadcasts its value; every node adopts
   what it received (bottom if nothing).  Then t+1 two-round phases of the
   Berman-Garay-Perry king algorithm run: in round A every node broadcasts
   its current value and computes the plurality [maj] with multiplicity
   [mult]; in round B the phase's king broadcasts its [maj] and every node
   keeps [maj] if [mult > n/2 + t], otherwise adopts the king's value.

   This simple two-round-per-phase variant requires n > 4t (the persistence
   argument needs n - t > n/2 + t).  For the tight unauthenticated bound
   n > 3t use Eig; for arbitrary t with authentication use Dolev_strong.
   Validity: if the sender is honest every honest node starts with its
   value and keeps it through every phase; agreement: at least one of the
   t+1 kings is honest, and its phase aligns all honest values.

   A round allocates nothing but its sends: the state is mutated in place
   (callers use the returned state, as with every sub-machine), and the
   Val count of round A runs in one scratch buffer per domain rather than
   per node or per call.

   The round-A memo: the count is pure in the inbox — the first Val per
   sender with the phase's number, then the plurality; it never reads
   [me] — so on a stamped inbox (an exact image of one shared engine
   window, {!Bb_intf.shared_decode}) it runs once.  The scratch keeps
   the last result under its (stamp, phase) key, and every other
   recipient of that window reads [maj] and [mult] from it: one count
   per round instead of one per node. *)

open Vv_sim

let name = "phase-king"

type msg = Val of { phase : int; value : int } | King of { phase : int; value : int }

let equal_msg a b =
  match (a, b) with
  | Val a, Val b -> a.phase = b.phase && a.value = b.value
  | King a, King b -> a.phase = b.phase && a.value = b.value
  | (Val _ | King _), _ -> false

type state = {
  sender : Types.node_id;
  mutable current : int;
  mutable maj : int;
  mutable mult : int;
}

let rounds ~n:_ ~t = (2 * (t + 1)) + 1

let king_of ~n phase = phase mod n

let start ~n:_ ~t:_ ~me ~sender ~value ~outbox =
  match value with
  | Some v when me = sender ->
      if v < 0 then invalid_arg "Phase_king.start: negative value";
      Outbox.broadcast outbox (Val { phase = -1; value = v });
      { sender; current = v; maj = Bb_intf.bottom; mult = 0 }
  | None when me <> sender ->
      { sender; current = Bb_intf.bottom; maj = Bb_intf.bottom; mult = 0 }
  | Some _ -> invalid_arg "Phase_king.start: value supplied at non-sender"
  | None -> invalid_arg "Phase_king.start: sender has no value"

(* Round A's Val-count scratch, one per domain, grown to the largest n
   seen: [seen] marks senders already counted, [vals]/[cnts] the
   distinct values and their counts.  A step uses them only within the
   call, so nodes and runs on one domain share them safely.  [memo_*]
   is the last count of a stamped inbox, keyed by its stamp and phase
   ([memo_stamp] -1: none); stamps are never reissued, so a key match
   means the same window. *)
type scratch = {
  mutable seen : Bytes.t;
  mutable vals : int array;
  mutable cnts : int array;
  mutable memo_stamp : int;
  mutable memo_phase : int;
  mutable memo_maj : int;
  mutable memo_mult : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        seen = Bytes.empty;
        vals = [||];
        cnts = [||];
        memo_stamp = -1;
        memo_phase = 0;
        memo_maj = Bb_intf.bottom;
        memo_mult = 0;
      })

(* The plurality of the first Val per sender of phase [k] in [inbox],
   into [st.maj]/[st.mult]. *)
let count_vals s ~n ~k st (inbox : msg Bb_intf.inbox) =
  if Array.length s.vals < n then begin
    s.seen <- Bytes.create n;
    s.vals <- Array.make n 0;
    s.cnts <- Array.make n 0
  end;
  let { seen; vals; cnts; _ } = s in
  Bytes.fill seen 0 n '\000';
  (* One Val per sender per phase (first message wins), counted into
     flat arrays — at most n distinct values, so the linear probe beats
     a pair of hash tables at every simulated size. *)
  let distinct = ref 0 in
  for i = 0 to inbox.Bb_intf.len - 1 do
    match inbox.Bb_intf.msgs.(i) with
    | Val { phase; value } when phase = k -> (
        let src = inbox.Bb_intf.srcs.(i) in
        if Bytes.get seen src = '\000' then begin
          Bytes.set seen src '\001';
          let j = ref 0 in
          while !j < !distinct && vals.(!j) <> value do
            incr j
          done;
          if !j < !distinct then cnts.(!j) <- cnts.(!j) + 1
          else begin
            vals.(!distinct) <- value;
            cnts.(!distinct) <- 1;
            incr distinct
          end
        end)
    | Val _ | King _ -> ()
  done;
  (* Plurality: highest count wins, ties to the smaller value — a
     strict total order on (count, value), so the scan order cannot
     matter and all honest nodes break ties identically. *)
  st.maj <- Bb_intf.bottom;
  st.mult <- 0;
  for j = 0 to !distinct - 1 do
    if cnts.(j) > st.mult || (cnts.(j) = st.mult && vals.(j) < st.maj)
    then begin
      st.maj <- vals.(j);
      st.mult <- cnts.(j)
    end
  done

let step ~n ~t ~me st ~lround ~inbox ~outbox =
  (* Local round layout: 1 = receive sender value, send Val(0);
     2k+2 = receive Val(k), king sends King(k);
     2k+3 = receive King(k), update, send Val(k+1) unless k = t. *)
  if lround = 1 then begin
    (* The value the designated sender sent us in round 0, if any. *)
    let v = ref st.current in
    for i = 0 to inbox.Bb_intf.len - 1 do
      match inbox.Bb_intf.msgs.(i) with
      | Val { phase = -1; value } when inbox.Bb_intf.srcs.(i) = st.sender ->
          v := value
      | Val _ | King _ -> ()
    done;
    let v = !v in
    Outbox.broadcast outbox (Val { phase = 0; value = v });
    st.current <- v;
    st
  end
  else if lround mod 2 = 0 then begin
    let k = (lround - 2) / 2 in
    let s = Domain.DLS.get scratch_key in
    let stamp = inbox.Bb_intf.stamp in
    if stamp >= 0 && s.memo_stamp = stamp && s.memo_phase = k then begin
      st.maj <- s.memo_maj;
      st.mult <- s.memo_mult
    end
    else begin
      count_vals s ~n ~k st inbox;
      if stamp >= 0 then begin
        s.memo_stamp <- stamp;
        s.memo_phase <- k;
        s.memo_maj <- st.maj;
        s.memo_mult <- st.mult
      end
    end;
    if me = king_of ~n k then
      Outbox.broadcast outbox (King { phase = k; value = st.maj });
    st
  end
  else begin
    let k = (lround - 3) / 2 in
    let king = king_of ~n k in
    (* The king's first message of the phase, if any. *)
    let heard = ref false and king_value = ref 0 in
    for i = 0 to inbox.Bb_intf.len - 1 do
      match inbox.Bb_intf.msgs.(i) with
      | King { phase; value }
        when phase = k && inbox.Bb_intf.srcs.(i) = king && not !heard ->
          heard := true;
          king_value := value
      | King _ | Val _ -> ()
    done;
    (* Keep maj on strong multiplicity, else follow the king (a silent
       Byzantine king leaves the current value unchanged). *)
    let v =
      if 2 * st.mult > n + (2 * t) then st.maj
      else if !heard then !king_value
      else st.current
    in
    st.current <- v;
    if k < t then Outbox.broadcast outbox (Val { phase = k + 1; value = v });
    st
  end

let result st = st.current
