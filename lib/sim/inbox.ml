(* Read-only inbox view — the receive half of the zero-allocation
   protocol API.

   The engine sorts each round's deliveries into one arena (grouped by
   recipient, sorted by sender id, stable in scheduling order — the
   same deterministic order the old assoc-list inboxes had) and hands
   every node a *view*: an (offset, length) window over the arena's
   parallel sender/payload-index arrays.  A payload index points into
   the engine's payload table, where each message is stored once per
   send however many recipients it has.  One view value is reused for
   all nodes of all rounds, so reading an inbox allocates nothing.

   Windows may overlap.  When every arrival of a round is a broadcast
   to every node (the engine's rows), the arena holds each broadcast
   once, sorted by sender, and every node's window is the whole arena;
   otherwise each recipient has a window of its own.  The entries a
   node reads are the same either way.

   A shared window carries a stamp: an int drawn afresh from one
   process-wide counter, never reset, each time the engine attaches an
   all-row arena, and -1 for any other window.  Every node stepping in
   that round reads the same entries under the same stamp, and no other
   window, in this run or any other (a run nested in an adversary's
   [act] included), ever carries it.  A reader may therefore compute a
   reduction that depends only on the window's entries once, keep it
   under the stamp, and hand it to every later recipient of the round.
   Such a cache may hold messages; the reader then registers, with
   [on_detach], a function that drops them, which the engine calls when
   the run ends.

   Like {!Outbox.t}, the payload table is untyped [Obj.t] storage; the
   phantom parameter guarantees reader and writer agree on 'msg.  Views
   are transient: they are only valid for the duration of the
   [Protocol.S.step] call they are passed to, and protocols must copy
   out (e.g. via [to_list]) anything they want to keep. *)

type 'msg t = {
  mutable srcs : int array;  (* arena: sender ids *)
  mutable pays : int array;  (* arena: payload indices, parallel to [srcs] *)
  mutable table : Obj.t array;  (* payloads, indexed by [pays] *)
  mutable off : int;
  mutable len : int;
  mutable stamp : int;  (* the attached arena's, -1 unless shared *)
  mutable on_detach : unit -> unit;
}

let nothing () = ()

let create () =
  {
    srcs = [||];
    pays = [||];
    table = [||];
    off = 0;
    len = 0;
    stamp = -1;
    on_detach = nothing;
  }

(* Process-wide, so stamps stay distinct across runs, run contexts and
   domains. *)
let next_stamp = Atomic.make 0

let set_arena t ~srcs ~pays ~table ~shared =
  t.srcs <- srcs;
  t.pays <- pays;
  t.table <- table;
  t.len <- 0;
  t.stamp <- (if shared then Atomic.fetch_and_add next_stamp 1 else -1)

let set_view t ~off ~len =
  t.off <- off;
  t.len <- len

let set_empty t =
  t.len <- 0;
  t.stamp <- -1

let stamp t = t.stamp

let on_detach t f = t.on_detach <- f

let detach t =
  set_arena t ~srcs:[||] ~pays:[||] ~table:[||] ~shared:false;
  let f = t.on_detach in
  t.on_detach <- nothing;
  f ()

let length t = t.len
let is_empty t = t.len = 0

let src t i = t.srcs.(t.off + i)
let msg (t : 'msg t) i : 'msg = Obj.obj t.table.(t.pays.(t.off + i))

let iter f t =
  for i = 0 to t.len - 1 do
    f (src t i) (msg t i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (src t i) (msg t i)
  done;
  !acc

let to_list t =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((src t i, msg t i) :: acc)
  in
  go (t.len - 1) []

(* Append the view's entries to [acc] in *reverse* arrival order — the
   shape protocols that buffer arrivals across rounds want (they cons
   onto a reversed buffer and [List.rev] once per batch). *)
let rev_append_to t acc =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := (src t i, msg t i) :: !acc
  done;
  !acc
