(* Deterministic round-based execution engine — zero-allocation hot path.

   Round structure (per round r >= 0):
     1. deliver all messages scheduled for r: the round's bucket is sorted
        into the delivery arena (grouped by recipient, sorted by sender,
        stable in scheduling order) and each node reads its inbox as an
        {!Inbox.t} window over the arena;
     2. fire retransmission timers due this round (chaos runs only): each
        destroyed-and-retryable delivery re-enters the network substrate;
     3. step every honest and not-yet-crashed node in id order (round 0 is
        [P.init]); each node pushes its sends into a reusable {!Outbox.t},
        which the engine expands against the topology and the crash filter
        (mid-broadcast crashes deliver to a subset, Lemma 4) into the
        round's send buffer;
     4. let the rushing adversary observe step 3's messages and inject the
        Byzantine nodes' messages, validated against the communication
        model (Property 6 relies on that validation); a statically passive
        adversary skips this step entirely;
     5. route every delivery — honest and adversarial alike — through the
        chaos substrate (Config.network): per-link omission, duplication,
        jitter clamped into the declared delay bound, partitions and
        outages; survivors get a delay and are scheduled.  A delivery the
        substrate destroys is final unless a retransmission policy
        (Config.retransmit) queues a capped-exponential-backoff retry.

   With [Network.none] and no retransmission (the defaults) step 2 is
   empty and step 5 degenerates to the plain delay assignment, drawing
   nothing from the chaos RNG — runs are byte-identical to the
   pre-substrate engine.

   Representation: an entry in flight is two immediate ints, a meta
   word ([src lsl 20 lor dst]; the retry queue adds the attempt count in
   higher bits) and the index of its message in a payload table.  The
   engine writes a message into the table once per send — once per
   outbox entry, once per adversary plan — so every buffer an entry
   passes through is int-only: both schedulers' buckets, the honest send
   buffer and the delivery arena.  Future rounds are scheduled into a
   round-indexed circular bucket array (power-of-two capacity, slot =
   round land (cap - 1), grown on collision); a bucket borrows a cleared
   buffer from its scheduler's free list while its round is live.

   Rows: an entry is one delivery, or a row — one broadcast to every
   node, marked by a dst field of all ones.  A broadcast becomes a row
   when the graph is complete, there is no chaos plan and no
   retransmission, the delay is [Synchronous] or [Fixed] (one constant
   that draws nothing from the delay RNG), the sender delivers to
   everyone this round (honest, or a crash node before its crash
   round) and its outbox this round holds only broadcasts.  Every other
   send is expanded per recipient, as are all adversary plans, so a
   sender's entries in one bucket are all rows or all deliveries.  A row
   is routed and scheduled once, and each buffer counts its rows as they
   are pushed, so the bucket picks its sort without testing entries:
   - no rows: the (dst, src) counting sort described at step 1;
   - only rows: a counting sort by sender into one window, and every
     node's inbox is that window — O(n + rows) instead of O(n^2).  The
     window carries a fresh {!Inbox.stamp}, so a protocol can also
     reduce it once for all its recipients (Phase 1's decode and
     Phase-King's Val count do) and the round's protocol work stays
     O(n) as well;
   - mixed (an adversary's plans, a crash round or a unicasting sender
     share the bucket with rows): each row is expanded in place into its
     n deliveries and the bucket takes the (dst, src) sort.
   Every observable is the per-recipient path's: inbox order, the RNG
   draws (a row draws nothing), the trace (a row counts as n honest
   deliveries) and the adversary's in-flight view (rows expanded).  Only
   the adversary's [sent_*] view shows rows as single entries, which
   every reader of it deduplicates by sender anyway.  test_sim.ml runs
   each case on both paths and compares.

   The flip: the context holds two payload tables.  After step 2, if
   nothing is scheduled and nothing is queued for retry, only this
   round's arena refers to the current table; the arena keeps reading
   it, and new sends go to the twin, cleared first (nothing refers to it
   any more).  Synchronous runs flip every round, so a table holds about
   two rounds of sends; when deliveries stay in flight across rounds
   (Uniform delays, retransmission) the table grows until the run ends.

   All of a run's buffers — both schedulers, both payload tables, the
   delivery arena with its counting-sort [counts] and inbox
   offsets/lengths, the honest send buffer, the inbox view, the outbox,
   the per-node state and phase columns and the trace builder — belong
   to a [context] that is reset on entry to [run_exn], not rebuilt: one
   per domain (in [Domain.DLS]), untyped so every [Make] instance
   shares it.  Release clears both payload tables and every state slot
   and detaches the inbox view, which also drops whatever a protocol
   cached under a shared window's stamp ({!Inbox.on_detach}), so a
   finished run's payloads are unreachable.  A run started while its
   domain's context is busy (nested inside an adversary's [act]) gets a
   fresh one; stamps come from a counter outside every context, so the
   fresh one cannot reissue a stamp.  Together with the outbox/inbox-view
   protocol API this makes the steady-state round allocate almost
   nothing and per-run set-up cheap — both budgets are pinned by
   test_perf.ml, and every campaign golden is byte-identical to the
   list-based engine's output.

   Determinism contract (pinned by the goldens): the delay RNG is drawn
   once per routed delivery in routing order — retransmissions first (in
   queue order), then adversary plans (in plan order), then honest sends
   (node id order, emission order, neighbourhood order) — and each
   node's inbox lists arrivals sorted by sender id, ties in scheduling
   order.  The chaos RNG is consulted per transit in the same routing
   order.

   Round-count convention: the engine executes at most [Config.max_rounds]
   rounds, with indices 0 .. max_rounds - 1.  Execution stops early the
   round every honest node has decided; a run that exhausts the budget
   with undecided honest nodes is reported as a stall (an admissible
   outcome for safety-guaranteed protocols, Definition V.1).
   The trace's [total_rounds] is the *number* of rounds executed — equal
   to [max_rounds] exactly on stalled runs — while [decision_round.(i)] is
   the 0-based *index* of the round node [i] decided in (so a node
   deciding in the last admissible round has
   [decision_round = max_rounds - 1]).  Historically the loop ran
   [max_rounds + 1] rounds and the reported count was the last round
   index, leaving both off by one against the configured budget; the
   regression test in test_sim.ml pins the fixed convention.

   Each run additionally accumulates a structured {!Trace.snapshot}:
   per-round send counts, adversary injections, chaos-substrate activity
   (dropped / duplicated / retransmitted), per-node phase transitions (via
   [P.phase]) and decide rounds.  The snapshot is immutable and is the
   run's only accounting record: message and round counts and the stall
   verdict are read from it, not restated on the result. *)

exception Invalid_adversary of string

(* Round-level tracing: enable with `Logs.Src.set_level Engine.log_src
   (Some Logs.Debug)` (the vvc CLI exposes this as --trace). *)
let log_src = Logs.Src.create "vv.engine" ~doc:"simulation engine rounds"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* --- packed deliveries, int-only buffers, payload tables (engine-internal) --- *)

(* Meta word layout: [attempt lsl 40 | src lsl 20 | dst].  20 bits per id
   bounds n at ~10^6 nodes, far beyond simulation sizes; attempts are
   single digits.  A dst field of all ones ([id_mask]) marks a row: one
   entry standing for a broadcast to every node. *)
let dst_bits = 20

let id_mask = (1 lsl dst_bits) - 1

let is_row m = m land id_mask = id_mask

let attempt_shift = 2 * dst_bits

let dummy = Obj.repr ()

(* A growable pair of parallel int arrays: one meta word and one payload
   index per entry, and the number of entries that are rows (counted at
   push time, so a consumer picks its loop per buffer instead of testing
   every entry).  Holding no pointers, it is written without a write
   barrier and cleared by resetting its lengths. *)
type buf = {
  mutable meta : int array;
  mutable pay : int array;
  mutable blen : int;
  mutable rows : int;
}

let buf_make () = { meta = [||]; pay = [||]; blen = 0; rows = 0 }

let buf_grow b =
  let cap = Array.length b.meta in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let meta = Array.make ncap 0 and pay = Array.make ncap 0 in
  Array.blit b.meta 0 meta 0 b.blen;
  Array.blit b.pay 0 pay 0 b.blen;
  b.meta <- meta;
  b.pay <- pay

let buf_push b m p =
  if b.blen = Array.length b.meta then buf_grow b;
  b.meta.(b.blen) <- m;
  b.pay.(b.blen) <- p;
  b.blen <- b.blen + 1

let buf_push_row b m p =
  buf_push b m p;
  b.rows <- b.rows + 1

let buf_clear b =
  b.blen <- 0;
  b.rows <- 0

(* A payload table: every message a run sends is written here once per
   send (an outbox entry or an adversary plan), and each of its
   deliveries carries the index.  Append-only between clears. *)
type table = { mutable slots : Obj.t array; mutable tlen : int }

let table_make () = { slots = [||]; tlen = 0 }

let intern tb msg =
  let i = tb.tlen in
  if i = Array.length tb.slots then begin
    let slots = Array.make (max 16 (2 * i)) dummy in
    Array.blit tb.slots 0 slots 0 i;
    tb.slots <- slots
  end;
  tb.slots.(i) <- msg;
  tb.tlen <- i + 1;
  i

(* Drop every payload, so a cleared table pins nothing. *)
let table_clear tb =
  Array.fill tb.slots 0 tb.tlen dummy;
  tb.tlen <- 0

(* Round-indexed circular bucket scheduler: the replacement for the old
   Hashtbl-of-lists pending map.  Slot = round land (cap - 1); a live slot
   remembers which round its contents belong to, and a collision with a
   live slot doubles the capacity until every live bucket lands on a
   distinct slot (bounded by max_rounds, and never reached with the
   repo's delay bounds and the default capacity).

   Buckets do not own buffers: a bucket borrows a cleared buffer from the
   scheduler's free list when it goes live and [release] returns it, so
   the capacity a scheduler retains across runs follows the rounds that
   were live at once, not the size of the ring. *)
module Sched = struct
  (* The buffer of every free bucket, and [take]'s "nothing due" answer.
     It is never pushed into, so it stays empty. *)
  let no_buf = buf_make ()

  type bucket = { mutable round : int; mutable buf : buf }

  type t = {
    mutable cap : int;
    mutable buckets : bucket array;
    mutable live : int;  (* entries currently scheduled, all buckets *)
    mutable free : buf array;  (* cleared buffers, a stack *)
    mutable nfree : int;
  }

  let free_buckets cap = Array.init cap (fun _ -> { round = -1; buf = no_buf })

  let create () =
    let cap = 16 in
    { cap; buckets = free_buckets cap; live = 0; free = [||]; nfree = 0 }

  let borrow t =
    if t.nfree = 0 then buf_make ()
    else begin
      t.nfree <- t.nfree - 1;
      let b = t.free.(t.nfree) in
      t.free.(t.nfree) <- no_buf;
      b
    end

  (* Clear a buffer obtained from [take] and return it to the free list. *)
  let release t b =
    if b != no_buf then begin
      buf_clear b;
      if t.nfree = Array.length t.free then begin
        let free = Array.make (max 4 (2 * t.nfree)) no_buf in
        Array.blit t.free 0 free 0 t.nfree;
        t.free <- free
      end;
      t.free.(t.nfree) <- b;
      t.nfree <- t.nfree + 1
    end

  let grow t =
    let live =
      Array.to_list t.buckets |> List.filter (fun b -> b.buf != no_buf)
    in
    let rec fit cap =
      let seen = Array.make cap false in
      let ok =
        List.for_all
          (fun b ->
            let s = b.round land (cap - 1) in
            if seen.(s) then false
            else begin
              seen.(s) <- true;
              true
            end)
          live
      in
      if ok then cap else fit (2 * cap)
    in
    let cap = fit (2 * t.cap) in
    let buckets = free_buckets cap in
    List.iter (fun b -> buckets.(b.round land (cap - 1)) <- b) live;
    t.cap <- cap;
    t.buckets <- buckets

  let rec bucket_for t round =
    let b = t.buckets.(round land (t.cap - 1)) in
    if b.buf == no_buf then begin
      b.round <- round;
      b.buf <- borrow t;
      b
    end
    else if b.round = round then b
    else begin
      grow t;
      bucket_for t round
    end

  let push t round meta pay =
    buf_push (bucket_for t round).buf meta pay;
    t.live <- t.live + 1

  let push_row t round meta pay =
    buf_push_row (bucket_for t round).buf meta pay;
    t.live <- t.live + 1

  (* Detach the buffer due at [round] ([no_buf], empty, when nothing is
     due) and surrender its live count; the caller consumes it and hands
     it back with [release].  Its bucket is free again at once, so pushes
     made while the caller consumes it cannot collide with it. *)
  let take t round =
    let b = t.buckets.(round land (t.cap - 1)) in
    if b.buf != no_buf && b.round = round then begin
      let buf = b.buf in
      b.buf <- no_buf;
      t.live <- t.live - buf.blen;
      buf
    end
    else no_buf

  let is_empty t = t.live = 0

  (* Fold over every entry still scheduled (a delivery or a row), across
     all live buckets, in no particular order (callers sort).  Feeds the
     adversary's in-flight view; allocates nothing itself. *)
  let fold t f acc =
    let acc = ref acc in
    Array.iter
      (fun b ->
        for i = 0 to b.buf.blen - 1 do
          acc := f !acc b.round b.buf.meta.(i)
        done)
      t.buckets;
    !acc

  (* Release every live bucket: the scheduler is empty afterwards. *)
  let reset t =
    Array.iter
      (fun b ->
        if b.buf != no_buf then begin
          release t b.buf;
          b.buf <- no_buf
        end)
      t.buckets;
    t.live <- 0
end

(* The run context: every buffer a run needs, reset on entry instead of
   rebuilt.  Storage is untyped ([Obj.t] payloads and states), so one
   context serves every [Make] instance; each domain keeps one, and a run
   started while the domain's context is busy (a run nested inside an
   adversary's [act], say) gets a fresh one. *)
type context = {
  mutable busy : bool;
  pending : Sched.t;  (* future deliveries *)
  retries : Sched.t;  (* retransmission timers *)
  (* The payload tables: [sends] takes this round's messages, [twin] is
     the one the flip swaps in (see the header). *)
  mutable sends : table;
  mutable twin : table;
  (* Delivery arena: the round's deliveries, grouped by recipient. *)
  mutable arena_srcs : int array;
  mutable arena_pay : int array;
  mutable counts : int array;  (* counting-sort keys, n * n *)
  mutable inbox_off : int array;
  mutable inbox_len : int array;
  honest_buf : buf;  (* the round's expanded honest sends *)
  inbox : unit Inbox.t;
  outbox : unit Outbox.t;
  (* Per-node columns, valid for indices [0, n) of the current run. *)
  mutable states : Obj.t array;
  mutable phases : Obj.t array;  (* last phase label, [dummy] = none *)
  trace : Trace.builder;
}

let context_make () =
  {
    busy = false;
    pending = Sched.create ();
    retries = Sched.create ();
    sends = table_make ();
    twin = table_make ();
    arena_srcs = [||];
    arena_pay = [||];
    counts = [||];
    inbox_off = [||];
    inbox_len = [||];
    honest_buf = buf_make ();
    inbox = Inbox.create ();
    outbox = Outbox.create ();
    states = [||];
    phases = [||];
    trace = Trace.builder ();
  }

let context_key = Domain.DLS.new_key context_make

let acquire ~n =
  let c = Domain.DLS.get context_key in
  let c = if c.busy then context_make () else c in
  c.busy <- true;
  if Array.length c.inbox_off < n then begin
    c.counts <- Array.make (n * n) 0;
    c.inbox_off <- Array.make n 0;
    c.inbox_len <- Array.make n 0;
    c.states <- Array.make n dummy;
    c.phases <- Array.make n dummy
  end;
  Array.fill c.phases 0 n dummy;
  c

(* Drop every message and state the run left behind, so nothing of it
   stays reachable from the context, and free the context. *)
let release c =
  Sched.reset c.pending;
  Sched.reset c.retries;
  table_clear c.sends;
  table_clear c.twin;
  buf_clear c.honest_buf;
  Inbox.detach c.inbox;
  Outbox.clear c.outbox;
  Array.fill c.states 0 (Array.length c.states) dummy;
  c.busy <- false

(* --- the delivery arena --- *)

(* Each round's bucket is sorted into the context's arena, and every node
   reads its inbox as an (offset, length) window of it.  Rows leave the
   per-recipient sort untouched: a bucket with no rows goes down
   [sort_by_dst], one of only rows down [sort_by_src], and a mixed one is
   expanded first. *)

let ensure_arena c len =
  if Array.length c.arena_srcs < len then begin
    let cap = max len (2 * Array.length c.arena_srcs) in
    c.arena_srcs <- Array.make cap 0;
    c.arena_pay <- Array.make cap 0
  end

(* Counting sort by key [dst * n + src], stable in scheduling order: each
   recipient's window lists its arrivals sorted by sender, ties in
   scheduling order. *)
let sort_by_dst c ~n (b : buf) =
  let len = b.blen in
  ensure_arena c len;
  let arena_srcs = c.arena_srcs and arena_pay = c.arena_pay in
  let counts = c.counts and inbox_off = c.inbox_off in
  let inbox_len = c.inbox_len in
  let meta = b.meta and pay = b.pay in
  Array.fill counts 0 (n * n) 0;
  for i = 0 to len - 1 do
    let m = meta.(i) in
    let key = ((m land id_mask) * n) + ((m lsr dst_bits) land id_mask) in
    counts.(key) <- counts.(key) + 1
  done;
  (* Prefix sums, one destination row at a time. *)
  let cum = ref 0 in
  for d = 0 to n - 1 do
    inbox_off.(d) <- !cum;
    for key = d * n to (d * n) + n - 1 do
      let k = counts.(key) in
      counts.(key) <- !cum;
      cum := !cum + k
    done;
    inbox_len.(d) <- !cum - inbox_off.(d)
  done;
  for i = 0 to len - 1 do
    let m = meta.(i) in
    let src = (m lsr dst_bits) land id_mask in
    let key = ((m land id_mask) * n) + src in
    let pos = counts.(key) in
    counts.(key) <- pos + 1;
    arena_srcs.(pos) <- src;
    arena_pay.(pos) <- pay.(i)
  done

(* An all-row bucket: every node receives every row, so the bucket is
   counting-sorted by sender alone (stable in scheduling order) into one
   window, and every node's inbox is that window. *)
let sort_by_src c ~n (b : buf) =
  let len = b.blen in
  ensure_arena c len;
  let arena_srcs = c.arena_srcs and arena_pay = c.arena_pay in
  let counts = c.counts in
  let meta = b.meta and pay = b.pay in
  Array.fill counts 0 n 0;
  for i = 0 to len - 1 do
    let src = (meta.(i) lsr dst_bits) land id_mask in
    counts.(src) <- counts.(src) + 1
  done;
  let cum = ref 0 in
  for src = 0 to n - 1 do
    let k = counts.(src) in
    counts.(src) <- !cum;
    cum := !cum + k
  done;
  for i = 0 to len - 1 do
    let src = (meta.(i) lsr dst_bits) land id_mask in
    let pos = counts.(src) in
    counts.(src) <- pos + 1;
    arena_srcs.(pos) <- src;
    arena_pay.(pos) <- pay.(i)
  done;
  Array.fill c.inbox_off 0 n 0;
  Array.fill c.inbox_len 0 n len

(* A mixed bucket, copied into [e] with each row replaced where it stood
   by one delivery per recipient: exactly what the per-recipient path
   would have scheduled.  A sender's entries in one bucket are all rows
   or all deliveries, so no tie of the (dst, src) sort changes order. *)
let expand_rows ~n (b : buf) ~into:e =
  buf_clear e;
  for i = 0 to b.blen - 1 do
    let m = b.meta.(i) and p = b.pay.(i) in
    if is_row m then
      for dst = 0 to n - 1 do
        buf_push e ((m land lnot id_mask) lor dst) p
      done
    else buf_push e m p
  done;
  e

module Make (P : Protocol.S) = struct
  type result = {
    config : Config.t;
    outputs : P.output option array;  (** indexed by node id; Byzantine slots stay [None] *)
    decision_round : int option array;
    trace : Trace.snapshot;
  }

  let honest_outputs res =
    List.map (fun id -> res.outputs.(id)) (Config.honest_ids res.config)

  (* Monomorphic assoc over message keys (the old polymorphic List.assoc
     here was a hot-path hazard and wrong for messages with non-structural
     components). *)
  let rec assoc_msg msg = function
    | [] -> None
    | (m, dsts) :: rest ->
        if P.equal_msg m msg then Some dsts else assoc_msg msg rest

  let rec remove_msg msg = function
    | [] -> []
    | ((m, _) as hd) :: rest ->
        if P.equal_msg m msg then rest else hd :: remove_msg msg rest

  (* Validate one round of adversary output against the fault plan and the
     communication model. *)
  let validate_adversary (cfg : Config.t) (plans : P.msg Adversary.delivery_plan list) =
    let module A = Adversary in
    List.iter
      (fun (p : P.msg A.delivery_plan) ->
        if not (Fault.is_byzantine (Config.fault_of cfg p.A.src)) then
          raise
            (Invalid_adversary
               (Fmt.str "adversary sent from non-Byzantine node %d" p.A.src));
        if p.A.dst < 0 || p.A.dst >= cfg.n then
          raise (Invalid_adversary "adversary destination out of range"))
      plans;
    match cfg.comm with
    | Types.Point_to_point -> ()
    | Types.Local_broadcast ->
        (* A Byzantine sender may broadcast several messages in one round —
           honest nodes can emit several sends, too — but each message
           must reach its whole neighbourhood identically.  Per-recipient
           variation (equivocation) and partial broadcasts both surface as
           a message whose recipient set is not exactly the neighbourhood.
           (The old per-sender uniformity check wrongly rejected two
           distinct uniform broadcasts in one round; the exhaustive checker
           found that on its first sweep.) *)
        let by_src = Hashtbl.create 8 in
        List.iter
          (fun (p : P.msg Adversary.delivery_plan) ->
            let groups =
              match Hashtbl.find_opt by_src p.Adversary.src with
              | None -> []
              | Some l -> l
            in
            let groups =
              match assoc_msg p.Adversary.msg groups with
              | Some dsts ->
                  (p.Adversary.msg, p.Adversary.dst :: dsts)
                  :: remove_msg p.Adversary.msg groups
              | None -> (p.Adversary.msg, [ p.Adversary.dst ]) :: groups
            in
            Hashtbl.replace by_src p.Adversary.src groups)
          plans;
        Hashtbl.iter
          (fun src groups ->
            List.iter
              (fun (_msg, dsts) ->
                let dsts = List.sort_uniq Int.compare dsts in
                if not (List.equal Int.equal dsts (Config.reach cfg src)) then
                  raise
                    (Invalid_adversary
                       (Fmt.str
                          "node %d local-broadcast message did not reach \
                           its whole neighbourhood (equivocation or \
                           partial broadcast)"
                          src)))
              groups)
          by_src

  let run_in (c : context) (cfg : Config.t) ~inputs ~adversary =
    let n = cfg.Config.n in
    let max_rounds = cfg.Config.max_rounds in
    let network = cfg.Config.network in
    let retransmit = cfg.Config.retransmit in
    let chaos_active = not (Network.is_none network) in
    let chaos = chaos_active || retransmit <> None in
    let master = Vv_prelude.Rng.create cfg.Config.seed in
    let node_rngs = Array.init n (fun _ -> Vv_prelude.Rng.split master) in
    let delay_rng = Vv_prelude.Rng.split master in
    (* Chaos draws come from a separate stream seeded by the network plan
       alone, so a chaos plan replays identically across engine seeds and
       the delay/node streams are untouched by its presence. *)
    let chaos_rng = Network.rng network in
    let delta = Delay.bound cfg.Config.delay in
    (* The row path's precondition on the configuration: the complete
       graph, reliable links and a delay that is one constant for every
       delivery and draws nothing ([row_delay], 0 when rows are off). *)
    let row_delay =
      match cfg.Config.delay with
      | (Delay.Synchronous | Delay.Fixed _)
        when Option.is_none cfg.Config.topology && not chaos ->
          Delay.resolve cfg.Config.delay delay_rng ~round:0 ~src:0 ~dst:0
      | _ -> 0
    in
    let debugging =
      match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false
    in
    (* Per-node context records, allocated once per run. *)
    let ctxs =
      Array.init n (fun id ->
          {
            Protocol.n;
            t = cfg.Config.t_max;
            me = id;
            comm = cfg.Config.comm;
            delta;
            rng = node_rngs.(id);
          })
    in
    let tb = c.trace in
    Trace.reset tb ~chaos ~protocol:P.name ~adversary:adversary.Adversary.name
      ~n ~t:cfg.Config.t_max;
    (* Node states, written before they are first read (round 0 is init);
       the context's untyped column, read back at [P.state]. *)
    let states = c.states in
    let state id : P.state = Obj.obj states.(id) in
    let outputs : P.output option array = Array.make n None in
    let decision_round : int option array = Array.make n None in
    let phases = c.phases in
    let note_phase ~round id state =
      let phase = P.phase state in
      let last = phases.(id) in
      if last == dummy || not (String.equal (Obj.obj last) phase) then begin
        phases.(id) <- Obj.repr phase;
        Trace.record_phase tb ~round ~node:id ~phase
      end
    in
    (* Last round (inclusive) each node still steps: crash nodes step
       through their crash round, Byzantine nodes never do. *)
    let step_until =
      Array.init n (fun id ->
          match cfg.Config.faults.(id) with
          | Fault.Honest -> max_int
          | Fault.Crash { at_round; _ } -> at_round
          | Fault.Byzantine -> -1)
    in
    let honest = Config.honest_ids cfg in
    let byzantine = Config.byzantine_ids cfg in
    let undecided_honest = ref (List.length honest) in
    let reach_fn = Config.reach cfg in
    (* Future deliveries and retransmission timers, as packed circular
       bucket queues. *)
    let pending = c.pending and retries = c.retries in
    let schedule ~arrival ~src ~dst pay =
      if arrival < max_rounds then
        Sched.push pending arrival ((src lsl dst_bits) lor dst) pay
    in
    let queue_retry ~round ~attempt ~src ~dst pay =
      match retransmit with
      | Some policy when attempt < policy.Retransmit.max_attempts ->
          let next = attempt + 1 in
          let at = round + Retransmit.backoff policy ~attempt:next in
          if at < max_rounds then
            Sched.push retries at
              ((next lsl attempt_shift) lor (src lsl dst_bits) lor dst)
              pay
      | Some _ | None -> ()
    in
    (* Per-round chaos accounting, reset each round. *)
    let dropped = ref 0 and duplicated = ref 0 and retransmitted = ref 0 in
    let base_delay ~round ~src ~dst =
      Delay.resolve cfg.Config.delay delay_rng ~round ~src ~dst
    in
    (* Jitter must stay within the delay model's own delivery guarantee:
       the substrate reorders arrivals but cannot break the assumption
       honest protocols rely on.  The cap is per send round — constant
       (= delta_t) for the bounded models, the fairness cap under
       [Asynchronous], and the shrinking [gst + bound - round] admissible
       window pre-GST under [Eventually_synchronous]. *)
    let clamp ~round d =
      match Delay.max_delay cfg.Config.delay ~round with
      | Some b -> if d < b then d else b
      | None -> d
    in
    (* [route] is the send->delivery path: chaos verdict, delay
       assignment, arrival-time cut check, retransmission queuing.  The
       non-chaos path is exactly the legacy delay assignment (and draws
       nothing from the chaos stream).  [pay] is the delivery's index in
       the payload table. *)
    let route ~round ~attempt ~src ~dst pay =
      if not chaos_active then
        let arrival = round + base_delay ~round ~src ~dst in
        schedule ~arrival ~src ~dst pay
      else
        (* Packed verdict ([Network.transit_i]): no allocation per chaos
           delivery, identical draw order to the record form. *)
        let v = Network.transit_i network chaos_rng ~round ~src ~dst in
        if v = Network.dropped_i then begin
          incr dropped;
          queue_retry ~round ~attempt ~src ~dst pay
        end
        else begin
          let extra_delay = v lsr 1 in
          let arrival =
            round + clamp ~round (base_delay ~round ~src ~dst + extra_delay)
          in
          (* A message in flight into a partition/outage window is lost
             at the receiver. *)
          if Network.cut network ~round:arrival ~src ~dst then begin
            incr dropped;
            queue_retry ~round ~attempt ~src ~dst pay
          end
          else schedule ~arrival ~src ~dst pay;
          if v land 1 = 1 then begin
            incr duplicated;
            (* The duplicate gets its own delay draws and is never
               retried — the original covers the retransmission. *)
            let extra = Network.extra_delay network chaos_rng in
            let arrival =
              round + clamp ~round (base_delay ~round ~src ~dst + extra)
            in
            if Network.cut network ~round:arrival ~src ~dst then incr dropped
            else schedule ~arrival ~src ~dst pay
          end
        end
    in
    let inbox_off = c.inbox_off and inbox_len = c.inbox_len in
    let have_inbox = ref false in
    (* The payload table the arena's indices point into: the one its
       deliveries were sent into. *)
    let arena_tbl = ref c.sends in
    (* This round's inbox of node [id], as the old assoc-list shape (for
       the adversary's view only — honest nodes read the window). *)
    let segment_list id =
      if not !have_inbox then []
      else begin
        let off = inbox_off.(id) in
        let slots = !arena_tbl.slots in
        let rec go i acc =
          if i < off then acc
          else
            go (i - 1)
              ((c.arena_srcs.(i), (Obj.obj slots.(c.arena_pay.(i)) : P.msg))
              :: acc)
        in
        go (off + inbox_len.(id) - 1) []
      end
    in
    (* The context's inbox view and outbox, at this protocol's message
       type: both store messages as [Obj.t] under a phantom parameter. *)
    let inbox : P.msg Inbox.t = Obj.magic c.inbox in
    let outbox : P.msg Outbox.t = Obj.magic c.outbox in
    (* The round's expanded honest sends (after crash filtering), packed;
       doubles as the adversary's observation and the routing work list. *)
    let honest_buf = c.honest_buf in
    let expand_per_recipient ~round ~src =
      let reach = cfg.Config.reach_arr.(src) in
      let olen = Outbox.length outbox in
      for i = 0 to olen - 1 do
        let dst = Outbox.dst outbox i in
        if dst = Outbox.broadcast_dst then begin
          let pay = intern c.sends (Obj.repr (Outbox.msg outbox i)) in
          for j = 0 to Array.length reach - 1 do
            let d = reach.(j) in
            if Config.delivers cfg ~src ~round ~dst:d then
              buf_push honest_buf ((src lsl dst_bits) lor d) pay
          done
        end
        else begin
          (* Honest nodes under local broadcast may only broadcast. *)
          (match cfg.Config.comm with
          | Types.Local_broadcast ->
              invalid_arg
                (Fmt.str "%s: node %d attempted unicast under local broadcast"
                   P.name src)
          | Types.Point_to_point -> ());
          let neighbour =
            match cfg.Config.topology with
            | None -> dst >= 0 && dst < n
            | Some _ ->
                let rec mem j =
                  j < Array.length reach && (reach.(j) = dst || mem (j + 1))
                in
                mem 0
          in
          if not neighbour then
            invalid_arg
              (Fmt.str "%s: node %d unicast to non-neighbour %d" P.name src dst);
          if Config.delivers cfg ~src ~round ~dst then
            buf_push honest_buf
              ((src lsl dst_bits) lor dst)
              (intern c.sends (Obj.repr (Outbox.msg outbox i)))
        end
      done
    in
    (* A sender that delivers to everyone this round and only broadcasts
       pushes one row per broadcast (see the header). *)
    let expand_outbox ~round ~src =
      if
        row_delay > 0
        && Config.delivers_all cfg ~src ~round
        && Outbox.only_broadcasts outbox
      then
        for i = 0 to Outbox.length outbox - 1 do
          buf_push_row honest_buf
            ((src lsl dst_bits) lor id_mask)
            (intern c.sends (Obj.repr (Outbox.msg outbox i)))
        done
      else expand_per_recipient ~round ~src
    in
    (* One reusable adversary view per run (the indexed-window analogue of
       the inbox): [round]/[sent_len] are refreshed each round, accessors
       read the live send buffer and arena, so observation is free until
       the adversary asks for content. *)
    let view =
      {
        Adversary.round = 0;
        sent_len = 0;
        sent_src = (fun i -> (honest_buf.meta.(i) lsr dst_bits) land id_mask);
        sent_dst =
          (fun i ->
            let m = honest_buf.meta.(i) in
            if is_row m then Outbox.broadcast_dst else m land id_mask);
        sent_msg =
          (fun i -> (Obj.obj c.sends.slots.(c.honest_buf.pay.(i)) : P.msg));
        byz_inbox = segment_list;
        in_flight =
          (fun () ->
            Sched.fold pending
              (fun acc r m ->
                let src = (m lsr dst_bits) land id_mask in
                if is_row m then
                  List.init n (fun dst -> (r, src, dst)) @ acc
                else (r, src, m land id_mask) :: acc)
              []
            |> List.sort compare);
        byzantine;
        n;
        reach = reach_fn;
      }
    in
    let stalled = ref false in
    (try
       for round = 0 to max_rounds - 1 do
         dropped := 0;
         duplicated := 0;
         retransmitted := 0;
         (* 1. deliver: sort this round's bucket into the arena. *)
         let b = Sched.take pending round in
         have_inbox := b.blen > 0;
         if !have_inbox then begin
           let shared = b.rows = b.blen in
           if b.rows = 0 then sort_by_dst c ~n b
           else if shared then sort_by_src c ~n b
           else
             (* The send buffer is idle from routing until step 3 clears
                it, so it holds the expansion. *)
             sort_by_dst c ~n (expand_rows ~n b ~into:honest_buf);
           arena_tbl := c.sends;
           Sched.release pending b;
           Inbox.set_arena inbox ~srcs:c.arena_srcs ~pays:c.arena_pay
             ~table:!arena_tbl.slots ~shared
         end;
         (* 2. fire retransmission timers due this round, in queue order.
            [take] detached the buffer from its bucket, so retries this
            routing queues for later rounds cannot land in it. *)
         let b = Sched.take retries round in
         for i = 0 to b.blen - 1 do
           incr retransmitted;
           let m = b.meta.(i) in
           route ~round
             ~attempt:(m lsr attempt_shift)
             ~src:((m lsr dst_bits) land id_mask)
             ~dst:(m land id_mask) b.pay.(i)
         done;
         Sched.release retries b;
         (* The flip: with nothing scheduled or queued, no delivery but
            this round's arena refers to the send table, so the arena
            keeps reading it while new sends go to the cleared twin.
            Nothing refers to the twin: its last readers were earlier
            rounds' arenas. *)
         if Sched.is_empty pending && Sched.is_empty retries then begin
           let old = c.sends in
           c.sends <- c.twin;
           c.twin <- old;
           table_clear c.sends
         end;
         buf_clear honest_buf;
         (* 3. step honest and not-yet-crashed nodes in id order. *)
         for id = 0 to n - 1 do
           if round <= step_until.(id) then begin
             if !have_inbox then
               Inbox.set_view inbox ~off:inbox_off.(id) ~len:inbox_len.(id)
             else Inbox.set_empty inbox;
             Outbox.clear outbox;
             let state' =
               if round = 0 then P.init ctxs.(id) (inputs id) ~outbox
               else P.step ctxs.(id) (state id) ~round ~inbox ~outbox
             in
             states.(id) <- Obj.repr state';
             note_phase ~round id state';
             (match P.output state' with
             | Some _ as out -> (
                 match outputs.(id) with
                 | Some _ -> ()
                 | None ->
                     outputs.(id) <- out;
                     decision_round.(id) <- Some round;
                     if Fault.is_honest cfg.Config.faults.(id) then
                       decr undecided_honest;
                     Trace.record_decide tb ~round ~node:id;
                     if debugging then
                       Log.debug (fun m ->
                           m "%s: node %d decided at round %d" P.name id round))
             | None -> ());
             expand_outbox ~round ~src:id
           end
         done;
         (* 4. rushing adversary: observes this round's honest messages.
            A statically passive adversary skips the view entirely. *)
         let plans =
           if adversary.Adversary.passive then []
           else begin
             view.Adversary.round <- round;
             view.Adversary.sent_len <- honest_buf.blen;
             let plans = adversary.Adversary.act view in
             (match plans with [] -> () | _ :: _ -> validate_adversary cfg plans);
             plans
           end
         in
         (* 5. route: adversary plans first, then honest sends — the RNG
            draw order the goldens pin. *)
         List.iter
           (fun (p : P.msg Adversary.delivery_plan) ->
             route ~round ~attempt:0 ~src:p.Adversary.src ~dst:p.Adversary.dst
               (intern c.sends (Obj.repr p.Adversary.msg)))
           plans;
         if honest_buf.rows = 0 then
           for i = 0 to honest_buf.blen - 1 do
             let m = honest_buf.meta.(i) in
             route ~round ~attempt:0
               ~src:((m lsr dst_bits) land id_mask)
               ~dst:(m land id_mask) honest_buf.pay.(i)
           done
         else begin
           (* Rows imply the constant delay, which [route] would assign
              to every delivery without a draw. *)
           let arrival = round + row_delay in
           if arrival < max_rounds then
             for i = 0 to honest_buf.blen - 1 do
               let m = honest_buf.meta.(i) in
               let pay = honest_buf.pay.(i) in
               if is_row m then Sched.push_row pending arrival m pay
               else Sched.push pending arrival m pay
             done
         end;
         (* A row counts as the n deliveries it stands for. *)
         let honest_sent = honest_buf.blen + (honest_buf.rows * (n - 1)) in
         Trace.record_round tb ~honest_sent
           ~byz_sent:(List.length plans) ~dropped:!dropped
           ~duplicated:!duplicated ~retransmitted:!retransmitted;
         if debugging then
           Log.debug (fun m ->
               m "%s: round %d sent honest=%d byzantine=%d dropped=%d (%s)"
                 P.name round honest_sent (List.length plans) !dropped
                 adversary.Adversary.name);
         if !undecided_honest = 0 then raise Exit;
         (* Fast-forward: when nothing is in flight, no timer can fire, the
            adversary is quiescent and every still-stepping node is inert,
            all remaining rounds are provably quiet — synthesize their
            (identical) trace records and jump to the stall verdict. *)
         if
           round < max_rounds - 1
           && Sched.is_empty pending && Sched.is_empty retries
           && (adversary.Adversary.passive || adversary.Adversary.quiescent ())
         then begin
           let all_inert = ref true in
           for id = 0 to n - 1 do
             (* Byzantine nodes never step (and hold no state); a crash
                node past its crash round is as quiet as one mid-life and
                inert.  Only nodes that will still step need the check. *)
             if step_until.(id) > round && not (P.inert (state id)) then
               all_inert := false
           done;
           if !all_inert then begin
             for _ = round + 1 to max_rounds - 1 do
               Trace.record_round tb ~honest_sent:0 ~byz_sent:0 ~dropped:0
                 ~duplicated:0 ~retransmitted:0
             done;
             stalled := true;
             raise Exit
           end
         end
       done;
       stalled := !undecided_honest > 0
     with Exit -> ());
    {
      config = cfg;
      outputs;
      decision_round;
      trace = Trace.snapshot tb ~stalled:!stalled;
    }

  (* Every run borrows its domain's context and hands it back on every
     exit, the [Invalid_adversary] one included. *)
  let run_exn (cfg : Config.t) ~inputs ?(adversary = Adversary.passive) () =
    let c = acquire ~n:cfg.Config.n in
    match run_in c cfg ~inputs ~adversary with
    | res ->
        release c;
        res
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        release c;
        Printexc.raise_with_backtrace e bt

  let run (cfg : Config.t) ~inputs ?adversary () =
    match run_exn cfg ~inputs ?adversary () with
    | res -> Ok res
    | exception Invalid_adversary reason -> Error (`Invalid_adversary reason)
end

(* The generic entry for protocols run outside a statically applied
   functor: campaigns and baselines that execute a protocol a handful of
   times per cell.  Hot paths keep their own [Make] application. *)
let exec (type i m o)
    (module P : Protocol.S
      with type input = i
       and type msg = m
       and type output = o) cfg ~inputs ?adversary () =
  let module E = Make (P) in
  let res = E.run_exn cfg ~inputs ?adversary () in
  (E.honest_outputs res, res.E.trace)
