(** Per-user throughput functions [lambda_i(phi)]: how much traffic one
    user of a content provider pushes when the system runs at
    utilization [phi >= 0].

    Every family satisfies Assumption 1: differentiable, strictly
    decreasing in [phi], and vanishing as [phi -> infinity]. The paper's
    evaluations use the exponential family [lambda0 * e^(-beta phi)];
    [beta] measures congestion sensitivity. *)

type spec =
  | Exponential of { l0 : float; beta : float }
      (** [l0 * exp (-beta * phi)]. *)
  | Isoelastic of { l0 : float; beta : float }
      (** [l0 * (1 + phi) ** (-beta)]: heavy-tailed congestion response. *)
  | Rational of { l0 : float; beta : float }
      (** [l0 / (1 + beta * phi)]: the M/M/1-like hyperbolic decay. *)

type t

val make : spec -> t
(** Validates parameters ([l0 > 0], [beta > 0]). *)

val spec : t -> spec

val exponential : ?l0:float -> beta:float -> unit -> t

val isoelastic : ?l0:float -> beta:float -> unit -> t

val rational : ?l0:float -> beta:float -> unit -> t

module Kernel (F : Numerics.Field.S) : sig
  val rate : spec -> F.t -> F.t
  val slope : spec -> F.t -> F.t
end
(** Every family written once over a scalar field. The dual evaluators
    below run it; {!rate}, {!derivative} and {!rate_slope_into} are
    direct float code with its operations in its order, bit-identical
    to [Kernel (Numerics.Field.Float_s)]. *)

val rate : t -> float -> float
(** [rate th phi = lambda(phi)]. Requires [phi >= 0]. *)

val derivative : t -> float -> float
(** [dlambda/dphi], analytically. Always negative. *)

val rate_slope_into :
  t -> float -> rates:float array -> slopes:float array -> int -> unit
(** [rate_slope_into th phi ~rates ~slopes i] stores [rate th phi] in
    [rates.(i)] and [derivative th phi] in [slopes.(i)], bit for bit,
    from one evaluation (one [exp] for the exponential family). *)

val rate_d : t -> Numerics.Dual.t -> Numerics.Dual.t
(** [lambda(phi)] on dual numbers (primal [phi >= 0] required). *)

val slope_d : t -> Numerics.Dual.t -> Numerics.Dual.t
val rate_d2 : t -> Numerics.Dual.Order2.t -> Numerics.Dual.Order2.t

val elasticity : t -> float -> float
(** The phi-elasticity [lambda'(phi) * phi / lambda(phi)]
    (Definition 2); [0] at [phi = 0] and negative beyond. *)

val scale_rate : t -> kappa:float -> t
(** Multiply the rate by [kappa] pointwise (the Lemma-2 rescaling).
    [kappa] must be positive. *)

val label : t -> string
