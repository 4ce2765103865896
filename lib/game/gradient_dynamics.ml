open Numerics

type result = {
  trajectory : Ode.trajectory;
  final : Vec.t;
  settled_at : float option;
  stationary : bool;
}

let vector_field ~marginal ~box s =
  let u = marginal s in
  Vec.init (Box.dim box) (fun i ->
      (* freeze components pushing out of the box at an active bound *)
      if Box.on_lower box s i && u.(i) < 0. then 0.
      else if Box.on_upper box s i && u.(i) > 0. then 0.
      else u.(i))

let flow ?(tol = 1e-8) ~marginal ~box ~horizon ~dt ~x0 () =
  if horizon <= 0. then invalid_arg "Gradient_dynamics.flow: horizon must be positive";
  let f _t s = vector_field ~marginal ~box s in
  let post s = Box.project box s in
  let trajectory =
    Ode.integrate ~post ~f ~t0:0. ~t1:horizon ~dt (Box.project box x0)
  in
  let final = Ode.final trajectory in
  let u_map s = Vec.neg (marginal s) in
  {
    trajectory;
    final;
    settled_at = Ode.converged_at ~tol trajectory;
    stationary = Vi.residual u_map box final <= Float.max (10. *. tol) 1e-6;
  }
