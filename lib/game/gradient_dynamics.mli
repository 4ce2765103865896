(** Continuous-time gradient (tatonnement) dynamics on a box.

    Each player adjusts its strategy in the direction of its marginal
    payoff, projected onto the strategy box:
    [ds_i/dt = u_i(s)], clipped so the state never leaves the box.
    Stationary points of the projected flow are exactly the box-KKT
    points — the Nash equilibria of the concave game. This gives the
    off-equilibrium adjustment story accompanying Theorems 4 and 6. *)

type result = {
  trajectory : Numerics.Ode.trajectory;
  final : Numerics.Vec.t;
  settled_at : float option;  (** time after which motion stays below [tol] *)
  stationary : bool;  (** final state is a VI solution of [-u] *)
}

val flow :
  ?tol:float ->
  marginal:(Numerics.Vec.t -> Numerics.Vec.t) ->
  box:Box.t ->
  horizon:float ->
  dt:float ->
  x0:Numerics.Vec.t ->
  unit ->
  result
(** Integrate the projected gradient flow from [x0] for [horizon] time
    units with RK4 steps of [dt]. [marginal s] is the whole vector
    [u(s)], called once per field evaluation (four per step, one more
    for the certificate), so a game whose marginals share one
    equilibrium solve pays it once per profile. [tol] (default [1e-8])
    is used both for the settling diagnosis and the final stationarity
    certificate. *)

val vector_field :
  marginal:(Numerics.Vec.t -> Numerics.Vec.t) ->
  box:Box.t ->
  Numerics.Vec.t ->
  Numerics.Vec.t
(** The projected field itself: [u_i(s)], zeroed when it points out of
    the box at an active bound. Exposed for testing. *)
