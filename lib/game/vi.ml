open Numerics

type f = Vec.t -> Vec.t

(* sup norm of the natural map x - Proj_K (x - F x), given F x *)
let natural_residual box x fx = Vec.norm_inf (Vec.sub x (Box.project box (Vec.sub x fx)))

let residual f box x = natural_residual box x (f x)

type outcome = { point : Vec.t; iterations : int; converged : bool }

(* step-size rule: grow by [grow] while the local Lipschitz estimate
   |F x - F y| / |x - y| of the step just taken allows, never past
   [safety] times its inverse *)
let grow = 1.1
let safety = 0.9

let solve_extragradient ?(gamma = 0.2) ?(tol = 1e-10) ?(max_iter = 50_000) f box ~x0 =
  if gamma <= 0. then invalid_arg "Vi.solve_extragradient: gamma must be positive";
  let rec loop x fx gamma iter =
    if iter > max_iter then { point = x; iterations = max_iter; converged = false }
    else begin
      let y = Box.project box (Vec.axpy (-.gamma) fx x) in
      let fy = f y in
      let x' = Box.project box (Vec.axpy (-.gamma) fy x) in
      (* F x' serves both the certificate and the next step *)
      let fx' = f x' in
      if Vec.dist_inf x' x <= tol && natural_residual box x' fx' <= Float.max tol 1e-8 then
        { point = x'; iterations = iter; converged = true }
      else begin
        let df = Vec.norm2 (Vec.sub fx fy) in
        let limit = if df > 0. then safety *. Vec.norm2 (Vec.sub x y) /. df else infinity in
        loop x' fx' (Float.min (grow *. gamma) limit) (iter + 1)
      end
    end
  in
  let x = Box.project box x0 in
  loop x (f x) gamma 1
