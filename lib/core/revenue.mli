(** ISP revenue under subsidization (Section 5.1, Theorem 7).

    With a fixed policy [q], the CPs' equilibrium subsidies respond to
    the ISP's price, so the induced revenue is
    [R(p) = p * sum_i m_i (p - s_i(p)) lambda_i (phi (s (p)))].
    Theorem 7 factors the marginal revenue into throughput plus an
    elasticity-weighted term. *)

val at_equilibrium : Subsidy_game.t -> Nash.equilibrium -> float
(** [R = p * theta] at a solved equilibrium. *)

val upsilon : Subsidy_game.t -> subsidies:Numerics.Vec.t -> float
(** [Upsilon = 1 + sum_j eps^lambdaj_mj] where, per equation (14),
    [eps^lambdaj_mj = m_j lambda_j'(phi) / (dg/dphi)]. A property of the
    physical model only. *)

val price_elasticities :
  Subsidy_game.t -> subsidies:Numerics.Vec.t -> Numerics.Vec.t
(** [eps^mi_p = (p / m_i) m_i'(t_i) (1 - ds_i/dp)], with [ds_i/dp]
    from the Theorem-6 sensitivity formulas. Requires [p > 0]. *)

val marginal_formula : Subsidy_game.t -> subsidies:Numerics.Vec.t -> float
(** Equation (13): [dR/dp = sum_i theta_i + Upsilon sum_i eps^mi_p
    theta_i], evaluated at an equilibrium profile. *)

val marginal_numeric : ?h:float -> Subsidy_game.t -> float
(** [dR/dp] by re-solving the Nash equilibrium at perturbed prices:
    the ground truth the formula is validated against. *)

val curve :
  Subsidy_game.t -> prices:float array -> (float * Nash.equilibrium * float) array
(** [(p, equilibrium(p), R(p))] along a price grid, each solve
    continuation-predicted from the previous cells (secant through the
    last two, plain warm start after the first) and corrected by
    {!Nash.correct}. *)

val optimal_price :
  ?p_max:float ->
  ?points:int ->
  ?track:Numerics.Continuation.track ->
  Subsidy_game.t ->
  float * Nash.equilibrium * float
(** [(p_star, equilibrium at p_star, R at p_star)]: the revenue-maximizing price for
    the game's policy cap over [\[0, p_max\]] (default 3), the
    equilibrium solved there, and its revenue. A coarse scan of
    [points] prices (default 49) brackets the argmax
    [\[x_(k-1), x_(k+1)\]]; when the Theorem-7 [dR/dp]
    ({!marginal_formula}, read off each cell's own equilibrium) changes
    sign across that bracket, Brent's method solves [dR/dp = 0] in it,
    otherwise (e.g. an argmax at an end of the grid) golden-section
    search on [R] refines it to 1e-5. The search walks a continuation
    track over the price axis; pass [track] to keep that warm state
    alive across calls (e.g. along an outer capacity search). *)
