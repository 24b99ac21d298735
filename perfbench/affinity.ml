(* Thread CPU affinity, so that each domain the benchmark keeps busy, and
   the reference kernel measured for it, stays on one known CPU. *)

(* The CPUs the calling thread may run on, in increasing order; empty
   where affinity is not supported. *)
external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"

(* Pin the calling thread to one CPU; false if that is not possible. *)
external pin_thread : int -> bool = "perfbench_pin_thread"
