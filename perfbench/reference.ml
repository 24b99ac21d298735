(* Host-speed reference kernel, run as a short-lived process of its own.

     reference.exe [CPU]

   Pins itself to CPU when one is given, then prints the wall seconds of
   one fixed kernel that uses only the standard library: allocation, a
   balanced map, a hash table and sorting, over a live set of a few
   hundred elements per round.  It links none of the repository's
   libraries and shares no heap or collector state with the benchmark
   program, so nothing the program under test does -- its library
   initialisation, its retained heap, the collector work it leaves
   behind -- can reach this figure.  A short untimed warm-up first
   touches the minor heap. *)

module Int_map = Map.Make (Int)

let kernel rounds =
  let st = Random.State.make [| 42 |] in
  let total = ref 0 in
  for _ = 1 to rounds do
    let a = Array.init 200 (fun _ -> Random.State.int st 1_000_000) in
    let m = Array.fold_left (fun m x -> Int_map.add x (x land 7) m) Int_map.empty a in
    let h = Hashtbl.create 16 in
    Array.iter (fun x -> Hashtbl.replace h (x land 0xff) x) a;
    let l = List.init 200 (fun i -> (a.(i), float_of_int i)) in
    let l = List.sort (fun (x, _) (y, _) -> compare y x) l in
    Array.sort compare a;
    total :=
      !total + Int_map.fold (fun _ v acc -> acc + v) m 0 + Hashtbl.length h
      + fst (List.hd l) + a.(0)
  done;
  !total

let () =
  if Array.length Sys.argv > 1 then
    ignore (Perfbench_affinity.Affinity.pin_thread (int_of_string Sys.argv.(1)));
  ignore (Sys.opaque_identity (kernel 100));
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel 900));
  Printf.printf "%.9f\n" (Unix.gettimeofday () -. t0)
