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
      prop_extragradient_solves_scaled_cournot;
    ] )
