(** The macroscopic system model [(m, mu)] of Section 3.

    A system couples a population of content providers to an access
    ISP's capacity through a utilization function. Given effective
    per-unit charges [t_i] (price minus subsidy for each CP), the user
    populations [m_i(t_i)] are determined, and the system settles at the
    unique utilization [phi] of Definition 1:
    [phi = Phi (sum_k m_k lambda_k (phi), mu)], found as the root of the
    strictly increasing gap function
    [g(phi) = Theta (phi, mu) - sum_k m_k lambda_k (phi)] (Lemma 1). *)

type t = {
  cps : Econ.Cp.t array;
  utilization : Econ.Utilization.t;
  capacity : float;
  rates_at_zero : Numerics.Vec.t;
      (** [lambda_i(0)], cached by {!make} for the zero-utilization
          probe of every solve *)
}

type state = {
  phi : float;  (** equilibrium utilization *)
  charges : Numerics.Vec.t;  (** the effective charges [t_i] used *)
  populations : Numerics.Vec.t;  (** [m_i(t_i)] *)
  rates : Numerics.Vec.t;  (** [lambda_i(phi)] *)
  throughputs : Numerics.Vec.t;  (** [theta_i = m_i lambda_i] *)
  aggregate : float;  (** [theta = sum_i theta_i] *)
  gap_slope : float;  (** [dg/dphi > 0] at the equilibrium *)
}

val make :
  ?utilization:Econ.Utilization.t ->
  cps:Econ.Cp.t array ->
  capacity:float ->
  unit ->
  t
(** [utilization] defaults to the paper's linear family [theta / mu].
    Raises [Invalid_argument] on an empty CP array or non-positive
    capacity. *)

val n_cps : t -> int

val with_capacity : t -> float -> t

val gap : t -> charges:Numerics.Vec.t -> float -> float
(** [gap sys ~charges phi = g(phi)] at fixed populations
    [m_i(charges_i)]. *)

val equilibrium_phi : ?phi_guess:float -> t -> charges:Numerics.Vec.t -> float
(** The unique root of the gap function, via the {!Numerics.Robust}
    fallback chain (analytic-slope Newton from [phi_guess], default 1,
    then secant, Brent and re-bracketed bisection). Each Newton iterate
    costs one kernel pass: the gap evaluation computes [g], [g'] and
    every rate together, and the slope reads that pass. A market with
    [g(0) >= 0], checked from the cached [rates_at_zero], clears at
    [phi = 0] without a root call. Raises
    {!Numerics.Robust.Solver_error} when the whole chain fails —
    numerical failure is a typed solver error, never
    [Invalid_argument]. *)

val solve : ?phi_guess:float -> t -> charges:Numerics.Vec.t -> state
(** Equilibrium utilization plus all derived per-CP quantities, read
    from the kernel pass the root finder made at the root. Raises
    {!Numerics.Robust.Solver_error} on numerical failure; sweeps that
    must degrade gracefully use {!solve_result}. *)

val solve_result :
  ?phi_guess:float ->
  t ->
  charges:Numerics.Vec.t ->
  (state, Numerics.Robust.error) result
(** [Result]-typed variant of {!solve} carrying the structured error
    (methods attempted, residuals, bracket history) on failure. *)

val solve_fixed_populations :
  ?phi_guess:float -> t -> populations:Numerics.Vec.t -> state
(** Variant with directly specified user populations (the basic model
    of Figure 2, before prices enter). The state's [charges] are NaN. *)

(** {2 Dual-field equilibria}

    The gap function in forward-mode dual arithmetic, plus
    implicit-function correction steps: given the primal root [phi*]
    and the analytic [gap_slope] there, one correction step
    [phi <- const phi* - gap (phi, s_dual) / const gap_slope] makes the
    first-order dual part of the implicit [phi (s)] exact; two steps in
    second-order arithmetic make the second order exact as well. This
    is how best responses and sensitivities get exact derivatives from
    a single primal solve. Callers must handle the [phi* = 0] market
    boundary themselves (the implicit function is kinked there). *)

val gap_slope_d : t -> Numerics.Dual.t array -> Numerics.Dual.t -> Numerics.Dual.t
(** The analytic [dg/dphi] expression in dual arithmetic (needed by
    sensitivity formulas that differentiate through the slope). *)

val phi_d :
  t ->
  populations:Numerics.Dual.t array ->
  phi:float ->
  gap_slope:float ->
  Numerics.Dual.t
(** The implicit equilibrium utilization as a dual number: primal
    [phi], exact first derivative along the populations' seed. *)

val phi_d2 :
  t ->
  populations:Numerics.Dual.Order2.t array ->
  phi:float ->
  gap_slope:float ->
  Numerics.Dual.Order2.t
(** Second-order variant: exact first and second derivatives. *)

(** {2 Comparative statics (Theorem 1)}

    All derivatives are evaluated at a solved state and treat the
    populations [m] as free parameters. *)

val dphi_dcapacity : t -> state -> float
(** Equation (3): [-(dg/dphi)^-1 * dTheta/dmu < 0]. *)

val dphi_dpopulation : t -> state -> int -> float
(** Equation (4): [(dg/dphi)^-1 * lambda_i > 0]. *)

val dthroughput_dcapacity : t -> state -> int -> float
(** [dtheta_i / dmu = m_i lambda_i'(phi) dphi/dmu > 0]. *)

val dthroughput_dpopulation : t -> state -> cp:int -> wrt:int -> float
(** [dtheta_cp / dm_wrt]: positive when [cp = wrt] (own-population
    effect, [lambda_i + m_i lambda_i' dphi/dm_i]), negative otherwise
    (congestion externality). *)
