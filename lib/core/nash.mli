(** Nash equilibria of the subsidization game (Theorems 3 and 4).

    Cold solves iterate exact best responses (Gauss-Seidel by
    default); continuation cells, which start from a predicted profile,
    are corrected by Newton's method on the Theorem-3 conditions. Every
    resulting profile is certified by the Theorem-3 KKT residual. *)

type classification = Lower | Interior | Upper
(** Membership in the paper's partition: [Lower = N-] (subsidy 0),
    [Upper = N+] (subsidy pinned at [q]), [Interior = N~]. *)

type equilibrium = {
  subsidies : Numerics.Vec.t;
  state : System.state;  (** utilization equilibrium at the profile *)
  utilities : Numerics.Vec.t;
  classes : classification array;
  sweeps : int;
  converged : bool;
  kkt_residual : float;  (** Theorem-3 stationarity violation *)
}

val solve :
  ?scheme:Gametheory.Best_response.scheme ->
  ?damping:float ->
  ?tol:float ->
  ?max_sweeps:int ->
  ?respond_points:int ->
  ?fused:bool ->
  ?x0:Numerics.Vec.t ->
  Subsidy_game.t ->
  equilibrium
(** Iterated best response from [x0] (default: the zero profile).
    [fused] (default true) is forwarded to {!Subsidy_game.to_game}:
    pass [false] for the grid-scan best responses over the analytic
    marginals (the ablation's pre-continuation variant).
    Raises {!Numerics.Robust.Solver_error} when the underlying
    utilization equilibrium is numerically unsolvable at some profile
    (after the whole fallback chain has been tried). *)

val correct : x0:Numerics.Vec.t -> Subsidy_game.t -> equilibrium
(** The continuation corrector: projected semismooth Newton on the
    Theorem-3 conditions, i.e. on the natural map
    [s - P(s + u(s))] of [VI(-u, [0,q]^n)], from the predicted profile
    [x0] (clamped into the box). Each step pins the CPs the projection
    sends to a bound and solves [J_FF d_F = -(u_F + J_FA d_A)] over the
    free ones ({!newton_direction}) with the exact rank-two Jacobian
    ({!Subsidy_game.marginal_jacobian_exact}, built from the iterate's
    own utilization equilibrium), then backtracks on the sup-norm
    natural residual. It stops when that residual is at most 1e-11. A
    singular step, a step no halving makes decrease the residual, or
    12 steps without converging hand the best iterate to {!solve}
    (best response).
    Newton steps count on [continuation.corrector.iters], a hand-off on
    [continuation.fallbacks]; [sweeps] of a Newton answer is its step
    count. Theorem 4's P-matrix condition makes every [J_FF]
    nonsingular. Raises like {!solve}. *)

val newton_direction :
  cap:float -> Numerics.Rank2.t -> Numerics.Vec.t -> Numerics.Vec.t -> Numerics.Vec.t
(** [newton_direction ~cap jac s u]: the corrector's step at profile
    [s] with marginals [u] and Jacobian [jac]. A CP with [s_i + u_i]
    outside [(0, q)] steps to that bound; the free set F solves
    [J_FF d_F = -(u_F + J_FA d_A)] by Woodbury in O(n)
    ({!Numerics.Rank2.solve}), so no matrix is formed. Raises
    [Numerics.Linalg.Singular] when a free CP has a zero diagonal entry
    or the 2x2 capacitance is singular or not finite; {!correct} then
    hands the profile to best response. *)

val solve_cell :
  Numerics.Continuation.track -> at:float -> Subsidy_game.t -> equilibrium
(** One continuation cell of a sweep over a parameter axis (price or
    cap) at value [at]: {!correct} from the track's prediction, or
    {!solve} (best response from zero) when the track has no history or
    the warm attempt does not settle (see
    {!Numerics.Continuation.solve_cell}). *)

val solve_result :
  ?scheme:Gametheory.Best_response.scheme ->
  ?damping:float ->
  ?tol:float ->
  ?max_sweeps:int ->
  ?respond_points:int ->
  ?fused:bool ->
  ?x0:Numerics.Vec.t ->
  Subsidy_game.t ->
  (equilibrium, Numerics.Robust.error) result
(** [Result]-typed variant of {!solve}: a market whose equilibrium
    computation fails anywhere in the nest comes back as a structured
    error, so Monte-Carlo sweeps record a degraded sample instead of
    crashing. *)

val solve_vi :
  ?gamma:float ->
  ?tol:float ->
  ?max_iter:int ->
  ?x0:Numerics.Vec.t ->
  Subsidy_game.t ->
  equilibrium
(** Alternative solver: Korpelevich extragradient iteration on the
    equivalent variational inequality [VI(-u, [0,q]^n)]. Slower than
    iterated best response on this game (it does not exploit the
    one-dimensional structure of each player's problem) but derivative-
    driven and sweep-free; used to cross-validate equilibria and in the
    solver ablation benchmark. The returned [sweeps] counts
    extragradient iterations. When the iteration budget runs out, the
    result is the projected start [x0] with [converged = false]. *)

val kkt_residual : Subsidy_game.t -> subsidies:Numerics.Vec.t -> float
(** Max complementarity violation of the Theorem-3 first-order
    conditions: [u_i <= 0] when [s_i = 0], [u_i >= 0] when [s_i = q],
    [u_i = 0] inside. *)

val classify :
  ?tol:float -> Subsidy_game.t -> subsidies:Numerics.Vec.t -> classification array

val threshold_consistency : Subsidy_game.t -> subsidies:Numerics.Vec.t -> float
(** Max over interior and upper CPs of
    [|s_i - min (tau_i s) q|] — the fixed-point form of Theorem 3.
    Small at a true equilibrium. *)

val multistart_spread :
  ?starts:int -> Numerics.Rng.t -> Subsidy_game.t -> float
(** Solve from several starting profiles and report the sup-norm spread
    of the converged equilibria: a numerical probe of the Theorem-4
    uniqueness condition (0 when unique). *)

val off_diagonal_monotone : Subsidy_game.t -> subsidies:Numerics.Vec.t -> bool
(** Whether [du_i/ds_j >= 0] for all [i <> j] at the profile (the
    Corollary-1 Leontief stability condition), read off the dense form
    ({!Numerics.Rank2.to_mat}) of the exact Jacobian
    {!Subsidy_game.marginal_jacobian_exact}. *)

val jacobian_is_p_matrix : Subsidy_game.t -> subsidies:Numerics.Vec.t -> bool
(** Whether [-grad_s u] is a P-matrix at the profile (exact Jacobian):
    the local sufficient condition in Theorem 4 for uniqueness. *)
