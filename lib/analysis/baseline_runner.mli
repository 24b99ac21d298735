(** Adversaries for the baseline protocols (experiment E8). The
    protocols themselves run through {!Vv_sim.Engine.exec}. *)

val raw_collude : unit -> Vv_baselines.Exchange_ba.msg Vv_sim.Adversary.t
(** Observe honest round-0 values and flood the runner-up — the collusion
    the voting protocols face, aimed at the exchange-based baselines. *)

val approx_outlier : value:float -> float Vv_sim.Adversary.t
(** Flood an extreme scalar every round (the sensor-failure scenario). *)
