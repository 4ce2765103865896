(** The subsidization competition game (Section 4).

    Under ISP price [p] and policy cap [q], each CP [i] chooses a
    per-unit subsidy [s_i in [0, q]] for its users' traffic; the
    effective charge becomes [t_i = p - s_i] and CP [i]'s utility is
    [U_i(s) = (v_i - s_i) * theta_i(s)]. This module evaluates
    utilities, analytic marginal utilities (via the implicit-function
    derivative of the utilization equilibrium), and the Theorem-3
    threshold [tau_i]; it also packages the game for the generic
    best-response solver. *)

type t

val make : System.t -> price:float -> cap:float -> t
(** Raises [Invalid_argument] on a negative price or cap. *)

val system : t -> System.t

val price : t -> float

val cap : t -> float
(** The policy limit [q]. *)

val with_price : t -> float -> t

val with_cap : t -> float -> t

val dim : t -> int

val box : t -> Gametheory.Box.t
(** The strategy space [\[0, q\]^n]. *)

val charges : t -> subsidies:Numerics.Vec.t -> Numerics.Vec.t
(** [t_i = p - s_i]. *)

val state : t -> subsidies:Numerics.Vec.t -> System.state
(** The utilization equilibrium under the subsidy profile. Warm-starts
    from the previous solve on this game value (cached internally), so
    sweeping nearby profiles is fast. *)

val resolve_state : ?state:System.state -> t -> subsidies:Numerics.Vec.t -> System.state
(** [state] when the caller already holds the utilization equilibrium
    at [subsidies] (only the profile's dimension is checked), else
    {!state}. Every [?state] argument below follows this contract: it
    saves the Lemma-1 solve. *)

val utility : t -> subsidies:Numerics.Vec.t -> int -> float
(** [U_i(s)]. *)

val utilities :
  ?state:System.state -> t -> subsidies:Numerics.Vec.t -> Numerics.Vec.t
(** All [U_i(s)]; [state] as in {!resolve_state}. *)

val revenue : t -> subsidies:Numerics.Vec.t -> float
(** The ISP's revenue [p * theta(s)] under the profile. *)

val dphi_dsubsidy : t -> System.state -> int -> float
(** [dphi/ds_i = -m_i'(t_i) lambda_i / (dg/dphi) >= 0] (implicit
    differentiation of the gap equation; the engine behind Lemma 3). *)

val marginal_utility : t -> subsidies:Numerics.Vec.t -> int -> float
(** Analytic [u_i(s) = dU_i/ds_i]:
    [-m_i lambda_i
     + (v_i - s_i) * (-m_i'(t_i) lambda_i + m_i lambda_i' dphi/ds_i)]. *)

val marginal_utilities :
  ?state:System.state -> t -> subsidies:Numerics.Vec.t -> Numerics.Vec.t

val threshold_tau : t -> subsidies:Numerics.Vec.t -> int -> float
(** Equation (9):
    [tau_i(s) = (v_i - s_i) eps^mi_si (1 + eps^lambdai_phi eps^phi_mi)].
    At a Nash equilibrium, [s_i = min (tau_i s) q] (Theorem 3). *)

val fused_marginal : t -> int -> Numerics.Vec.t -> float -> float * float
(** [fused_marginal g i s si]: the pair [(dU_i/ds_i, d2U_i/ds_i2)] at
    the profile [s] with [s_i := si] — one warm primal solve plus one
    second-order dual pass through the payoff, with the equilibrium
    [phi(s_i)] differentiated by implicit-function correction steps
    ({!System.phi_d2}). The fused Newton objective of the continuation
    best response. *)

val marginal_utilities_dp :
  ?state:System.state -> t -> subsidies:Numerics.Vec.t -> Numerics.Dual.t array
(** All [n] marginal utilities as duals seeded on the ISP price (every
    effective charge moves together): primal values plus the exact
    [du_k/dp] — the Theorem-6/8 forcing term without a price stencil. *)

val marginal_jacobian_exact :
  ?state:System.state -> t -> subsidies:Numerics.Vec.t -> Numerics.Rank2.t
(** The marginal-utility Jacobian [du_k/ds_j], exactly, in its
    rank-two form [diag(e) + a w^T + b z^T]: a CP's marginal depends on
    the others' subsidies only through the utilization [phi] and the
    gap slope [G = g'(phi)], with [w_j = dphi/ds_j = -m_j' lambda_j / G]
    and [z_j = lambda_j' m_j']. Built in O(n) from one utilization
    equilibrium (one Lemma-1 solve, none with [state]) and one
    second-order kernel pass per CP, counted as one AD pass. The
    Theorem-6 sensitivity input and the Newton corrector's step
    matrix; {!Numerics.Rank2.to_mat} gives the dense matrix. *)

val to_game :
  ?respond_points:int -> ?fused:bool -> t -> Gametheory.Best_response.game
(** Adapter for {!Gametheory.Best_response} with analytic marginals.
    [fused] (default true) attaches {!fused_marginal} so best responses
    use the fused Newton path; pass [false] for the grid-scan respond
    over the analytic marginals (the ablation's pre-continuation
    variant).
    [respond_points] tunes the first-order scan resolution (see
    {!Gametheory.Best_response.make}); exposed for the numerics
    ablation. *)
