open Numerics

type f = Vec.t -> Vec.t

let natural_map f box x =
  let fx = f x in
  Vec.sub x (Box.project box (Vec.sub x fx))

let residual f box x = Vec.norm_inf (natural_map f box x)

let projection_step ~gamma f box x = Box.project box (Vec.axpy (-.gamma) (f x) x)

type outcome = { point : Vec.t; iterations : int; converged : bool }

let solve_extragradient ?(gamma = 0.2) ?(tol = 1e-10) ?(max_iter = 50_000) f box ~x0 =
  if gamma <= 0. then invalid_arg "Vi.solve_extragradient: gamma must be positive";
  let rec loop x iter =
    if iter > max_iter then { point = x; iterations = max_iter; converged = false }
    else begin
      let y = projection_step ~gamma f box x in
      let x' = Box.project box (Vec.axpy (-.gamma) (f y) x) in
      if Vec.dist_inf x' x <= tol && residual f box x' <= Float.max tol 1e-8 then
        { point = x'; iterations = iter; converged = true }
      else loop x' (iter + 1)
    end
  in
  loop (Box.project box x0) 1
