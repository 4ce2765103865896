open Numerics
open Gametheory
open Test_helpers

let box2 () = Box.uniform ~dim:2 ~lo:0. ~hi:1.

let test_natural_map_zero_at_solution () =
  let f = Game_fixtures.cournot_vi_map () in
  let star = Vec.make 2 0.3 in
  check_true "residual ~ 0 at Nash" (Vi.residual f (box2 ()) star < 1e-12);
  check_true "nonzero elsewhere" (Vi.residual f (box2 ()) (Vec.make 2 0.1) > 1e-3)

let test_kkt_violation () =
  let f = Game_fixtures.cournot_vi_map () in
  check_true "kkt zero at solution" (Vi.residual f (box2 ()) (Vec.make 2 0.3) < 1e-12);
  (* at the lower corner, F < 0 (profitable to increase): violated *)
  check_true "kkt violated at 0" (Vi.residual f (box2 ()) (Vec.zeros 2) > 0.1)

let test_extragradient () =
  let f = Game_fixtures.cournot_vi_map () in
  let r = Vi.solve_extragradient f (box2 ()) ~x0:(Vec.zeros 2) in
  check_true "eg converged" r.Vi.converged;
  check_true "eg counts its steps" (r.Vi.iterations >= 1);
  check_close ~tol:1e-6 "eg x0" 0.3 r.Vi.point.(0);
  check_close ~tol:1e-6 "eg x1" 0.3 r.Vi.point.(1);
  let short = Vi.solve_extragradient ~max_iter:3 f (box2 ()) ~x0:(Vec.zeros 2) in
  check_true "budget exhaustion is reported, not raised" (not short.Vi.converged);
  Alcotest.(check int) "budget spent" 3 short.Vi.iterations;
  check_raises_invalid "bad gamma" (fun () ->
      Vi.solve_extragradient ~gamma:0. f (box2 ()) ~x0:(Vec.zeros 2) |> ignore)

let test_extragradient_binding_constraint () =
  (* push the solution to the boundary with a tight box *)
  let f = Game_fixtures.cournot_vi_map () in
  let tight = Box.uniform ~dim:2 ~lo:0. ~hi:0.2 in
  let x = (Vi.solve_extragradient f tight ~x0:(Vec.zeros 2)).Vi.point in
  check_close ~tol:1e-6 "binds at 0.2" 0.2 x.(0);
  check_true "certified" (Vi.residual f tight x <= 1e-7)

(* Korpelevich's method with the step held at [gamma]: the rule the
   adaptive step replaced, kept here as the yardstick (same exit test) *)
let fixed_step_iterations ~gamma ~max_iter f box ~x0 =
  let step x d = Box.project box (Vec.axpy (-.gamma) d x) in
  let rec loop x iter =
    if iter > max_iter then None
    else begin
      let x' = step x (f (step x (f x))) in
      if Vec.dist_inf x' x <= 1e-10 && Vi.residual f box x' <= 1e-8 then Some iter
      else loop x' (iter + 1)
    end
  in
  loop (Box.project box x0) 1

(* F x = A (x - star) with A = [[1, 10]; [-10, 1]]: monotone,
   |A v| = sqrt 101 |v| for every v, so L = sqrt 101 and the default
   first step 0.2 has gamma L ~ 2. A fixed step then multiplies the
   error by |1 - gamma lambda + gamma^2 lambda^2| ~ 3.4 per step
   (lambda = 1 +- 10i) and never settles; the adaptive step falls to
   0.9 / L after one step and converges. *)
let test_extragradient_adapts_a_too_large_step () =
  let star = Vec.of_list [ 0.3; -0.2 ] in
  let f (x : Vec.t) =
    let d0 = x.(0) -. star.(0) and d1 = x.(1) -. star.(1) in
    Vec.of_list [ d0 +. (10. *. d1); (-10. *. d0) +. d1 ]
  in
  let box = Box.uniform ~dim:2 ~lo:(-10.) ~hi:10. in
  let x0 = Vec.of_list [ 1.; 1. ] in
  check_true "a fixed step does not converge"
    (fixed_step_iterations ~gamma:0.2 ~max_iter:10_000 f box ~x0 = None);
  let r = Vi.solve_extragradient f box ~x0 in
  check_true "adaptive step converges" r.Vi.converged;
  check_true "certified by the natural residual" (Vi.residual f box r.Vi.point <= 1e-8);
  check_close ~tol:1e-8 "x0" 0.3 r.Vi.point.(0);
  check_close ~tol:1e-8 "x1" (-0.2) r.Vi.point.(1)

(* F x = diag (0.02, 0.05) (x - star): L = 0.05, so the default step
   0.2 is 1/100 of 1/L and a fixed step crawls *)
let test_extragradient_grows_a_too_small_step () =
  let f (x : Vec.t) = Vec.of_list [ 0.02 *. (x.(0) -. 0.7); 0.05 *. (x.(1) -. 0.4) ] in
  let box = Box.uniform ~dim:2 ~lo:0. ~hi:1. in
  let x0 = Vec.zeros 2 in
  let fixed =
    match fixed_step_iterations ~gamma:0.2 ~max_iter:100_000 f box ~x0 with
    | Some k -> k
    | None -> Alcotest.fail "the fixed step converges, slowly"
  in
  let r = Vi.solve_extragradient f box ~x0 in
  check_true "converged" r.Vi.converged;
  check_true "certified by the natural residual" (Vi.residual f box r.Vi.point <= 1e-8);
  check_true
    (Printf.sprintf "%d adaptive <= %d fixed-step iterations / 5" r.Vi.iterations fixed)
    (5 * r.Vi.iterations <= fixed)

let prop_extragradient_solves_scaled_cournot =
  prop "extragradient solves Cournot for random costs" ~count:50 (float_range 0. 0.8)
    (fun c ->
      let f = Game_fixtures.cournot_vi_map ~c () in
      let x = (Vi.solve_extragradient f (box2 ()) ~x0:(Vec.make 2 0.5)).Vi.point in
      Float.abs (x.(0) -. ((1. -. c) /. 3.)) < 1e-5)

let suite =
  ( "vi",
    [
      quick "natural map" test_natural_map_zero_at_solution;
      quick "kkt violation" test_kkt_violation;
      quick "extragradient" test_extragradient;
      quick "extragradient binding" test_extragradient_binding_constraint;
      quick "extragradient shrinks a large step" test_extragradient_adapts_a_too_large_step;
      quick "extragradient grows a small step" test_extragradient_grows_a_too_small_step;
      prop_extragradient_solves_scaled_cournot;
    ] )
