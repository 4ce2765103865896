(** Finite-dimensional variational inequalities on boxes.

    A point [x] in [K] solves [VI(F, K)] when [(y - x)^T F(x) >= 0] for
    all [y in K]. With [F = -u] (minus the marginal utilities) and
    [K = [0,q]^n], solutions are exactly the Nash equilibria of the
    concave subsidization game (Facchinei-Pang, Prop. 1.4.2), which is
    how Theorem 6's sensitivity analysis is justified. *)

type f = Numerics.Vec.t -> Numerics.Vec.t

val residual : f -> Box.t -> Numerics.Vec.t -> float
(** Sup norm of the natural map [x - Proj_K (x - F x)], which is zero
    exactly at solutions: a verifiable optimality certificate. *)

type outcome = {
  point : Numerics.Vec.t;  (** the last iterate *)
  iterations : int;  (** extragradient steps taken *)
  converged : bool;
      (** the last step moved at most [tol] and the {!residual} there is
          at most [max tol 1e-8] *)
}

val solve_extragradient :
  ?gamma:float ->
  ?tol:float ->
  ?max_iter:int ->
  f ->
  Box.t ->
  x0:Numerics.Vec.t ->
  outcome
(** Korpelevich extragradient iteration from [Proj_K x0], each step
    [y = Proj_K (x - g F x)], [x' = Proj_K (x - g F y)] with an
    adaptive step [g]. [gamma] (default 0.2) is the first step; after
    each step [g' = min (1.1 g, 0.9 |x - y| / |F x - F y|)] (Euclidean
    norms), so the step grows while the local Lipschitz estimate of
    the step just taken allows and falls to [0.9 / L] when it was too
    long. The rule reads only [F x] and [F y], and [F x'] serves both
    the convergence test and the next step: two evaluations of [F] per
    step. Converges for monotone Lipschitz [F]. Running out of
    [max_iter] steps is reported as [converged = false], not raised;
    a step is reported as converged only when its {!residual} is at
    most [max tol 1e-8]. *)
