(* A non-blocking line channel: the per-connection plumbing shared by the
   serve daemon ({!Server}) and the follower daemon ({!Replica}).

   Inbound: [read_lines] drains whatever the kernel has buffered and
   returns the complete lines, keeping a partial trailing line for the
   next call.  The partial line lives at the front of a growable byte
   buffer: each read appends after it and only the new bytes are scanned
   for ['\n'], so a line split across k reads costs O(length), not
   O(k * length).  A partial line longer than [max_line] kills the
   channel — an unbounded line is a misbehaving peer, never a request.

   Outbound: [enqueue] appends one line to a FIFO of unsent
   payloads and opportunistically flushes; the select loop retries
   [flush_write] whenever the fd turns writable.  Writes therefore never
   block the daemon — a consumer that stops reading only grows its own
   queue, and [enqueue] reports [`Overflow] once the queue passes the
   caller's bound so the loop can apply its slow-consumer policy.

   Every syscall retries [EINTR], treats [EAGAIN]/[EWOULDBLOCK] as "no
   progress", and marks the channel dead on any other [Unix_error] (or on
   EOF) instead of raising — a dying peer must never crash the loop.  A
   dead channel remembers the first reason it died, so the owning loop
   can count its disconnects by cause. *)

let max_line = 1 lsl 20

type death = Peer_gone | Overflow | Long_line | Closed

type t = {
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
      (* [0, inlen) holds bytes read but not yet terminated by '\n';
         reads land directly after them (per channel: channels cross
         domains) *)
  mutable inlen : int;
  outq : string Queue.t;  (* unsent payloads, each ending in '\n' *)
  mutable out_ofs : int;  (* bytes of the queue head already written *)
  mutable out_bytes : int;  (* total unsent bytes across the queue *)
  mutable death : death option;  (* [None] while alive *)
}

let of_fd fd =
  Unix.set_nonblock fd;
  {
    fd;
    inbuf = Bytes.create 65536;
    inlen = 0;
    outq = Queue.create ();
    out_ofs = 0;
    out_bytes = 0;
    death = None;
  }

let fd t = t.fd
let alive t = Option.is_none t.death
let death t = t.death

(* The first cause sticks. *)
let die t cause = if Option.is_none t.death then t.death <- Some cause

let kill t = die t Closed
let unsent t = t.out_bytes
let want_write t = alive t && t.out_bytes > 0

let close t =
  die t Closed;
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let rec flush_write t =
  if alive t && not (Queue.is_empty t.outq) then
    let head = Queue.peek t.outq in
    let len = String.length head - t.out_ofs in
    match Unix.single_write_substring t.fd head t.out_ofs len with
    | written ->
        t.out_bytes <- t.out_bytes - written;
        if written = len then begin
          ignore (Queue.pop t.outq);
          t.out_ofs <- 0;
          flush_write t
        end
        else t.out_ofs <- t.out_ofs + written
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_write t
    | exception Unix.Unix_error (_, _, _) -> die t Peer_gone

let enqueue t ~max_outq line =
  if not (alive t) then `Ok
  else begin
    let payload = line ^ "\n" in
    Queue.push payload t.outq;
    t.out_bytes <- t.out_bytes + String.length payload;
    flush_write t;
    if t.out_bytes > max_outq then begin
      die t Overflow;
      `Overflow
    end
    else `Ok
  end

(* Reads land after the partial line; a full buffer doubles, which keeps
   the total copying linear in the line length. *)
let rec read_available t =
  let cap = Bytes.length t.inbuf in
  if t.inlen = cap then begin
    let grown = Bytes.create (2 * cap) in
    Bytes.blit t.inbuf 0 grown 0 t.inlen;
    t.inbuf <- grown
  end;
  match Unix.read t.fd t.inbuf t.inlen (Bytes.length t.inbuf - t.inlen) with
  | 0 ->
      die t Peer_gone;
      0
  | len -> len
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_available t
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
  | exception Unix.Unix_error (_, _, _) ->
      die t Peer_gone;
      0

let read_lines t =
  if not (alive t) then []
  else
    match read_available t with
    | 0 -> []
    | len ->
        let buf = t.inbuf in
        let lines = ref [] in
        let start = ref 0 in
        (* Bytes before [inlen] were scanned by earlier calls. *)
        for i = t.inlen to t.inlen + len - 1 do
          if Bytes.unsafe_get buf i = '\n' then begin
            lines := Bytes.sub_string buf !start (i - !start) :: !lines;
            start := i + 1
          end
        done;
        let rest = t.inlen + len - !start in
        (* Only a tail after a newline moves, and it is shorter than this
           read. *)
        if !start > 0 then Bytes.blit buf !start buf 0 rest;
        t.inlen <- rest;
        if rest > max_line then begin
          die t Long_line;
          t.inbuf <- Bytes.empty;
          t.inlen <- 0
        end;
        List.rev !lines
