(** Fixed-step ODE integration for vector fields.

    Used for continuous-time adjustment dynamics (gradient flows of the
    subsidization game). Fixed-step RK4 is plenty: the flows of interest
    are smooth contractions and the trajectories are short. *)

type trajectory = {
  times : float array;
  states : Vec.t array;  (** [states.(k)] at [times.(k)]; includes the start *)
}

val integrate :
  ?post:(Vec.t -> Vec.t) ->
  f:(float -> Vec.t -> Vec.t) ->
  t0:float ->
  t1:float ->
  dt:float ->
  Vec.t ->
  trajectory
(** Integrate from [t0] to [t1] in classical Runge-Kutta steps of size
    [dt] (the last step is shortened to land on [t1] exactly). [post] is
    applied to the state after every step — the hook for projecting onto
    a constraint set.
    Raises [Invalid_argument] on a non-positive [dt] or [t1 < t0]. *)

val final : trajectory -> Vec.t

val converged_at : ?tol:float -> trajectory -> float option
(** The earliest recorded time after which every consecutive state
    change stays below [tol] (sup norm); [None] if the trajectory never
    settles. *)
