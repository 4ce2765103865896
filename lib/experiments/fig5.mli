(** Figure 5: per-CP throughput [theta_i] vs price for the 9 CP types
    [(alpha, beta) in {1,3,5}^2]. Expected shapes: every [theta_i]
    eventually decreases; CPs with small [alpha_i / beta_i] (price-
    insensitive, congestion-sensitive users) rise before falling. *)

val experiment : Common.t
