(* In-memory span recorder for the traced benchmark runs.

   A span is (name, start, end, parent, request).  Spans are opened and
   closed from the benchmark's own code around each call into a layer;
   nothing inside the program under test is instrumented.  Storage is a
   set of growable unboxed arrays, and the spans are only written out (and
   reduced to per-layer self times) after the measured passes. *)

type t = {
  mutable on : bool;
  mutable len : int;
  mutable name : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable req : int array;
  names : (string, int) Hashtbl.t;
  mutable labels : string array;
}

let create () =
  let cap = 1024 in
  {
    on = false;
    len = 0;
    name = Array.make cap 0;
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    parent = Array.make cap (-1);
    req = Array.make cap (-1);
    names = Hashtbl.create 16;
    labels = [||];
  }

(* Span names are interned once, before the measured passes. *)
let intern t label =
  match Hashtbl.find_opt t.names label with
  | Some i -> i
  | None ->
      let i = Array.length t.labels in
      Hashtbl.add t.names label i;
      t.labels <- Array.append t.labels [| label |];
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.name <- ext t.name 0;
  t.start <- ext t.start 0.;
  t.stop <- ext t.stop 0.;
  t.parent <- ext t.parent (-1);
  t.req <- ext t.req (-1)

(* Returns the span id, or -1 when tracing is off. *)
let enter t name ~parent ~req =
  if not t.on then -1
  else begin
    if t.len = Array.length t.name then grow t;
    let id = t.len in
    t.len <- id + 1;
    t.name.(id) <- name;
    t.parent.(id) <- parent;
    t.req.(id) <- req;
    t.start.(id) <- Unix.gettimeofday ();
    id
  end

let leave t id = if id >= 0 then t.stop.(id) <- Unix.gettimeofday ()

(* Record a span whose interval was measured elsewhere (e.g. the daemon's
   reply timestamps seen by the client). *)
let record t name ~parent ~req ~start ~stop =
  let id = enter t name ~parent ~req in
  if id >= 0 then begin
    t.start.(id) <- start;
    t.stop.(id) <- stop
  end;
  id

type layer = { count : int; self_s : float }

(* Self time = duration minus the part covered by child spans.  Children
   of one parent never overlap: every span is opened and closed on one
   thread, strictly nested. *)
let layers t =
  let child = Array.make t.len 0. in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (t.stop.(i) -. t.start.(i))
  done;
  let acc = Array.make (Array.length t.labels) { count = 0; self_s = 0. } in
  for i = 0 to t.len - 1 do
    let a = acc.(t.name.(i)) in
    acc.(t.name.(i)) <-
      { count = a.count + 1; self_s = a.self_s +. t.stop.(i) -. t.start.(i) -. child.(i) }
  done;
  fun label ->
    match Hashtbl.find_opt t.names label with
    | Some i -> acc.(i)
    | None -> { count = 0; self_s = 0. }

let write t path =
  let oc = open_out path in
  output_string oc "id,name,start_us,end_us,parent,request\n";
  let t0 = if t.len > 0 then t.start.(0) else 0. in
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d,%s,%.1f,%.1f,%d,%d\n" i t.labels.(t.name.(i))
      ((t.start.(i) -. t0) *. 1e6)
      ((t.stop.(i) -. t0) *. 1e6)
      t.parent.(i) t.req.(i)
  done;
  close_out oc
