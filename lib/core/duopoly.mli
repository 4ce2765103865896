(** Access-ISP competition (the Section-6 conjecture).

    The paper studies a single access ISP and conjectures that
    competition between ISPs would both discipline prices and still
    reward subsidization. This module models the smallest such market:
    two ISPs covering the same CP population.

    Users of CP [i] facing effective charges [t_ik = p_k - s_i] split
    between the ISPs by a logit rule with sensitivity [eta], applied to
    a total demand evaluated at the cheaper charge:

    [m_ik = m_i(min_k t_ik) * exp(-eta t_ik) / sum_l exp(-eta t_il)].

    Each ISP then settles at its own utilization equilibrium (Lemma 1
    per ISP, via {!System.solve_fixed_populations}); a CP's throughput
    is the sum over ISPs. CPs still play the subsidization game (one
    subsidy per CP, honoured by both ISPs, capped by the policy [q]);
    the ISPs play a simultaneous price game on top. *)

type t

type market = {
  prices : float * float;
  subsidies : Numerics.Vec.t;
  utilizations : float * float;
  populations : Numerics.Vec.t * Numerics.Vec.t;  (** per ISP, per CP *)
  throughputs : Numerics.Vec.t;  (** total per CP *)
  revenues : float * float;
  welfare : float;
}

val make :
  ?utilization:Econ.Utilization.t ->
  ?eta:float ->
  cps:Econ.Cp.t array ->
  capacity_a:float ->
  capacity_b:float ->
  cap:float ->
  unit ->
  t
(** [eta] (default 4) controls how sharply users chase the cheaper
    ISP. Raises [Invalid_argument] on non-positive capacities or
    [eta], a negative cap, or an empty CP array. *)

val split_populations :
  t -> prices:float * float -> subsidies:Numerics.Vec.t -> Numerics.Vec.t * Numerics.Vec.t
(** The logit population split, before any congestion effect. *)

val fused_marginal :
  t -> prices:float * float -> int -> Numerics.Vec.t -> float -> float * float
(** [fused_marginal d ~prices i s si]: CP [i]'s marginal payoff and its
    own-subsidy slope at the profile [s] with [s_i := si], from one
    warm primal solve per ISP plus a second-order dual pass through
    both utilization equilibria (the logit share is constant in the
    common subsidy). Drives the fused Newton best response of the CP
    game in continuation mode; exported for the derivative pin tests. *)

val market_at : t -> prices:float * float -> market
(** Solve the CPs' subsidization game under the given price pair, then
    both utilization equilibria. With [cap = 0] the CP game is skipped
    (all subsidies zero). *)

val price_equilibrium :
  ?p_max:float -> ?points:int -> ?tol:float -> ?max_sweeps:int -> t -> market
(** The ISPs' simultaneous price game by iterated best response
    (derivative-free line search per ISP, [points] default 13,
    [p_max] default 2.5). Returns the market at the equilibrium
    prices. *)

val monopoly_benchmark : ?p_max:float -> ?points:int -> t -> market
(** The same duopoly demand system under a single decision maker
    choosing one common price to maximize total revenue — the collusive
    / monopoly reference point for the competition comparison. *)
