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
    [y = Proj_K (x - gamma F x)], [x' = Proj_K (x - gamma F y)].
    Converges for monotone Lipschitz [F] with a small enough step
    [gamma] (default 0.2). Running out of [max_iter] steps is reported
    as [converged = false], not raised. *)
