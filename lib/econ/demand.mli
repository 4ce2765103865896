(** User-demand functions [m_i(t)]: the population of a content
    provider's users as a function of the effective per-unit usage
    charge [t] (price minus subsidy).

    Every family satisfies Assumption 2 of the paper: continuously
    differentiable, strictly decreasing, and vanishing as [t -> infinity].
    All families are defined on the whole real line because subsidies can
    push the effective charge below zero. The paper's evaluations use the
    exponential family [m0 * e^(-alpha t)]. *)

type spec =
  | Exponential of { m0 : float; alpha : float }
      (** [m0 * exp (-alpha * t)]; [alpha] is (minus) the price
          semi-elasticity. *)
  | Isoelastic of { m0 : float; alpha : float; scale : float }
      (** [m0 * (1 + softplus (t / scale)) ** (-alpha)]: behaves like a
          constant-elasticity demand for large [t] but stays smooth and
          finite for subsidized (negative) charges. *)
  | Logit of { m0 : float; slope : float; midpoint : float }
      (** [m0 / (1 + exp (slope * (t - midpoint)))]: a population whose
          valuations are logistically distributed around [midpoint]. *)

type t

val make : spec -> t
(** Validates parameters ([m0 > 0] and positive shape parameters).
    Raises [Invalid_argument]. *)

val spec : t -> spec

val exponential : ?m0:float -> alpha:float -> unit -> t
(** The paper's family, [m0] defaulting to 1. *)

val isoelastic : ?m0:float -> ?scale:float -> alpha:float -> unit -> t

val logit : ?m0:float -> ?midpoint:float -> slope:float -> unit -> t

module Kernel (F : Numerics.Field.S) : sig
  val population : spec -> F.t -> F.t
  val slope : spec -> F.t -> F.t
end
(** Every family written once over a scalar field, branching on the
    primal. The dual evaluators below run it; {!population} and
    {!derivative} are direct float code with its operations in its
    order, bit-identical to [Kernel (Numerics.Field.Float_s)]. *)

val population : t -> float -> float
(** [population d t = m(t)]. *)

val derivative : t -> float -> float
(** [dm/dt], analytically. Always negative. *)

val population_d : t -> Numerics.Dual.t -> Numerics.Dual.t
(** [m(t)] on dual numbers — exact [dm/dt] along any seed. *)

val slope_d : t -> Numerics.Dual.t -> Numerics.Dual.t
(** [dm/dt] on dual numbers — exact second derivatives of [m]. *)

val population_d2 : t -> Numerics.Dual.Order2.t -> Numerics.Dual.Order2.t

val elasticity : t -> float -> float
(** The t-elasticity [m'(t) * t / m(t)] (Definition 2). Negative for
    positive [t]. *)

val scale_population : t -> kappa:float -> t
(** Multiply the population by [1 / kappa] pointwise (the Lemma-2
    rescaling). [kappa] must be positive. *)

val label : t -> string
(** Human-readable description, e.g. ["exp(m0=1, alpha=3)"]. *)
