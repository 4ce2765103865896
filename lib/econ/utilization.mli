(** System-utilization functions [Phi(theta, mu)] and their inverses
    [Theta(phi, mu) = Phi^{-1}] in the throughput argument.

    Assumption 1: [Phi] is differentiable, strictly increasing in the
    aggregate throughput [theta], strictly decreasing in the capacity
    [mu], and [Phi(0, mu) = 0]. Consequently [Theta] is strictly
    increasing in both arguments. The paper's evaluations use the linear
    family [theta / mu]. *)

type t

val linear : t
(** [Phi = theta / mu]: utilization as load per capacity. *)

val power : float -> t
(** [power k]: [Phi = (theta / mu) ** k] for [k > 0], a convex
    ([k > 1]) or concave ([k < 1]) congestion onset. *)

val log_family : t
(** [Phi = log (1 + theta / mu)]: diminishing marginal congestion. *)

val phi : t -> theta:float -> mu:float -> float
(** Utilization at aggregate throughput [theta >= 0] and capacity
    [mu > 0]. *)

val theta_of : t -> phi:float -> mu:float -> float
(** The implied throughput [Theta(phi, mu)] inverting [phi]. *)

val theta_of_d : t -> phi:Numerics.Dual.t -> mu:float -> Numerics.Dual.t
val theta_of_d2 : t -> phi:Numerics.Dual.Order2.t -> mu:float -> Numerics.Dual.Order2.t
val dtheta_dphi_d : t -> phi:Numerics.Dual.t -> mu:float -> Numerics.Dual.t

val dphi_dtheta : t -> theta:float -> mu:float -> float
(** Positive for [theta > 0]. *)

val dphi_dmu : t -> theta:float -> mu:float -> float
(** Negative for [theta > 0]. *)

val dtheta_dphi : t -> phi:float -> mu:float -> float
(** Positive for [phi > 0]. *)

val dtheta_dmu : t -> phi:float -> mu:float -> float
(** Positive for [phi > 0]. *)

val label : t -> string
