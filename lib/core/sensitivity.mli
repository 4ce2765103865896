(** Equilibrium sensitivity analysis (Theorems 6 and 8).

    A regular Nash equilibrium is locally a differentiable function
    [s (p, q)] of the ISP price and the policy cap. The derivatives
    follow the variational-inequality sensitivity formulas (11)-(12):
    the CPs pinned at 0 or [q] keep their corner behaviour, while the
    interior CPs move by [-Psi] times the forcing term, where
    [Psi = (grad_s~ u~)^{-1}] inverts the interior block of the marginal
    utility Jacobian. The Jacobian and the price forcing [du~/dp] are
    exact dual-number passes ({!Subsidy_game.marginal_jacobian_exact},
    {!Subsidy_game.marginal_utilities_dp}). *)

type partition = {
  lower : int array;  (** [N-]: subsidies at 0 *)
  interior : int array;  (** [N~] *)
  upper : int array;  (** [N+]: subsidies at the cap [q] *)
}

val partition : ?tol:float -> Subsidy_game.t -> subsidies:Numerics.Vec.t -> partition

val ds_dq :
  ?state:System.state -> Subsidy_game.t -> subsidies:Numerics.Vec.t -> Numerics.Vec.t
(** Equation (11): the policy derivative of the equilibrium profile at
    fixed price — 0 on [N-], 1 on [N+],
    [-Psi grad_{N+} u~ 1] on [N~]; [state] as in
    {!Subsidy_game.resolve_state}. The interior solve is Woodbury on the
    rank-two Jacobian, O(n). Raises [Numerics.Linalg.Singular] when the
    interior block has a zero diagonal entry or a singular 2x2
    capacitance ({!Numerics.Rank2.solve}). *)

val ds_dp :
  ?state:System.state -> Subsidy_game.t -> subsidies:Numerics.Vec.t -> Numerics.Vec.t
(** Equation (12): the price derivative at fixed policy — 0 outside
    [N~], [-Psi du~/dp] on it; [state] as in
    {!Subsidy_game.resolve_state}. Solved and raising like {!ds_dq}. *)

(** {2 Policy effect with ISP price response (Theorem 8)} *)

type policy_effect = {
  dp_dq : float;  (** the assumed ISP price response *)
  ds_dq_total : Numerics.Vec.t;
      (** [ds_i/dq = partial_q s_i + partial_p s_i * dp/dq] (eq. 21) *)
  dcharge_dq : Numerics.Vec.t;  (** [dt_i/dq = dp/dq - ds_i/dq] *)
  dpopulation_dq : Numerics.Vec.t;  (** equation (15) *)
  dphi_dq : float;  (** equation (16) *)
  drate_dq : Numerics.Vec.t;  (** [dlambda_i/dq] *)
  dthroughput_dq : Numerics.Vec.t;
  dwelfare_dq : float;  (** [sum_i v_i dtheta_i/dq] *)
}

val policy_effect :
  ?dp_dq:float -> Subsidy_game.t -> subsidies:Numerics.Vec.t -> policy_effect
(** Evaluate Theorem 8 at an equilibrium. [dp_dq] defaults to 0 (fixed
    or regulated price, the Corollary-1 regime). One Lemma-1 solve
    serves {!ds_dq}, {!ds_dp} and the effect itself. *)

val condition17_margin :
  Subsidy_game.t -> policy_effect -> state:System.state -> int -> float
(** The slack of condition (17) for CP [i]:
    [-eps^phi_q - eps^mi_ti eps^ti_q / eps^lambdai_phi], which has the
    same sign as [dtheta_i/dq] — positive iff the CP's throughput grows
    with deregulation. Falls back to the sign-equivalent raw derivative
    [dtheta_i/dq] when an elasticity in the formula is undefined
    ([q = 0], [t_i = 0] or [phi = 0]). *)
