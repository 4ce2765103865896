(** Numeric verification of the paper's formal results.

    Each function re-derives a theorem's claim by an independent route
    (finite differences of re-solved equilibria, multistart probes,
    sign checks) and compares it to the analytic formulas implemented in
    the library. These checks back both the test suite and the
    [verify] experiment of the CLI. *)

type check = {
  name : string;
  passed : bool;
  detail : string;  (** the compared quantities, for diagnosis *)
}

val pp_check : Format.formatter -> check -> unit

val all_passed : check list -> bool

(** {2 Section 3: the basic model} *)

val lemma1_uniqueness : System.t -> charges:Numerics.Vec.t -> check
(** The gap function is strictly increasing on a [phi] grid and the
    equilibrium is insensitive to the solver's starting guess. *)

val lemma2_invariance :
  System.t -> charges:Numerics.Vec.t -> cp:int -> kappa:float -> check
(** Rescaling CP [cp] by [kappa] (Lemma 2) leaves the utilization
    unchanged. *)

val theorem1 : System.t -> charges:Numerics.Vec.t -> check list
(** Signs and finite-difference agreement of [dphi/dmu], [dphi/dm_i]
    and the throughput derivatives. *)

val theorem2 : System.t -> price:float -> check list
(** Signs and finite-difference agreement of [dphi/dp] and
    [dtheta/dp]; condition (7) against the observed sign of
    [dtheta_i/dp]. *)

(** {2 Section 4: the subsidization game} *)

val lemma3 :
  Subsidy_game.t -> subsidies:Numerics.Vec.t -> cp:int -> delta:float -> check list
(** A unilateral subsidy increase raises own throughput and utilization
    and weakly lowers everyone else's throughput. *)

val theorem3 : Subsidy_game.t -> Nash.equilibrium -> check list
(** KKT residual and the [s_i = min tau_i q] fixed-point form at the
    computed equilibrium. *)

val theorem4 : Numerics.Rng.t -> Subsidy_game.t -> check
(** Multistart equilibria coincide (uniqueness probe). *)

val theorem5 : Subsidy_game.t -> cp:int -> delta:float -> check
(** Raising [v_cp] by [delta] weakly raises CP [cp]'s equilibrium
    subsidy. *)

(** {2 Section 5: revenue and welfare} *)

val theorem7 : Subsidy_game.t -> Nash.equilibrium -> check
(** Marginal revenue: equation (13) against a numeric [dR/dp]. *)

(** {2 Suites} *)

val run_paper_suite : ?seed:int64 -> unit -> check list
(** Every check above, instantiated on the paper's Figure 7-11 scenario
    (plus the Figure 4-5 scenario for Section 3), at representative
    prices and policies. *)
