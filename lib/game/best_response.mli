(** Best-response machinery for continuous games on boxes.

    A game is described by per-player payoffs [payoff i s] (player [i]'s
    utility under the full strategy profile [s]) plus, optionally, the
    analytic marginal payoff [d payoff_i / d s_i]. When the marginal is
    available, best responses are computed from first-order sign
    changes — far more accurate than derivative-free search. *)

type game = {
  box : Box.t;
  payoff : int -> Numerics.Vec.t -> float;
  marginal : (int -> Numerics.Vec.t -> float) option;
  fused : (int -> Numerics.Vec.t -> float -> float * float) option;
      (** [fused i s si] returns the marginal payoff AND its own-strategy
          slope at [s] with [s_i := si] from one fused evaluation (a
          second-order dual pass). When present, {!respond} runs a
          projected damped Newton from the current coordinate instead of
          the grid scan. *)
  respond_points : int;
      (** resolution of the line search / first-order scan in {!respond}
          (default 25; the marginal-based scan uses half of it) *)
}

type scheme =
  | Gauss_seidel  (** players update sequentially within a sweep *)
  | Jacobi  (** players update simultaneously from the sweep's start profile *)

type outcome = {
  profile : Numerics.Vec.t;
  sweeps : int;
  moves : float list;
      (** sup-norm displacement of every sweep, in order: the
          trajectory's convergence trace, one entry per sweep *)
  converged : bool;
}

val make :
  ?marginal:(int -> Numerics.Vec.t -> float) ->
  ?fused:(int -> Numerics.Vec.t -> float -> float * float) ->
  ?respond_points:int ->
  box:Box.t ->
  payoff:(int -> Numerics.Vec.t -> float) ->
  unit ->
  game

val respond : game -> int -> Numerics.Vec.t -> float
(** Player [i]'s best reply to the profile (its own coordinate seeds the
    fused Newton when one is attached; otherwise it is ignored). With a
    [fused] marginal the reply is the projected Newton point (interior
    stationary point or KKT corner); without one, or when that whole
    chain fails, candidates are the box endpoints plus all first-order
    roots of [marginal], and the payoff-maximizing candidate wins. *)

val solve :
  ?scheme:scheme ->
  ?damping:float ->
  ?tol:float ->
  ?max_sweeps:int ->
  game ->
  x0:Numerics.Vec.t ->
  outcome
(** Iterated best response from [x0]. [damping in (0, 1]] blends the
    reply with the current strategy (default 1, undamped);
    [tol] (default [1e-10]) bounds the final sweep displacement.
    Unconverged runs are returned with [converged = false] rather than
    raised, so callers can inspect the trajectory endpoint. This is the
    only sweep loop: [Nash.solve] runs it for the static equilibrium and
    [Dynamics] for the adjustment trace. *)

val contraction_estimate : outcome -> float option
(** Geometric mean of the positive ratios of consecutive [moves]:
    an empirical contraction factor of the sweep map. [None] when there
    are fewer than 4 moves or no positive ratio. *)

val solve_multistart :
  ?scheme:scheme ->
  ?damping:float ->
  ?tol:float ->
  ?max_sweeps:int ->
  ?starts:int ->
  Numerics.Rng.t ->
  game ->
  outcome list
(** [solve] from the box center, both corners and [starts - 3] random
    points; useful for probing uniqueness. *)
