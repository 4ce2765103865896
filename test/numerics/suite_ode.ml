open Numerics
open Test_helpers

(* dx/dt = -x: exact solution x0 e^{-t} *)
let decay _t (x : Vec.t) = Vec.neg x

let test_rk4_accuracy () =
  let traj = Ode.integrate ~f:decay ~t0:0. ~t1:1. ~dt:0.1 (Vec.of_list [ 1. ]) in
  check_close ~tol:1e-6 "e^-1" (exp (-1.)) (Ode.final traj).(0)

let test_trajectory_bookkeeping () =
  let traj = Ode.integrate ~f:decay ~t0:0. ~t1:0.35 ~dt:0.1 (Vec.of_list [ 1. ]) in
  Alcotest.(check int) "steps recorded" 5 (Array.length traj.Ode.times);
  check_close "start time" 0. traj.Ode.times.(0);
  check_close ~tol:1e-12 "lands exactly on t1" 0.35 traj.Ode.times.(4);
  check_close "initial state kept" 1. traj.Ode.states.(0).(0)

let test_validation () =
  check_raises_invalid "bad dt" (fun () ->
      Ode.integrate ~f:decay ~t0:0. ~t1:1. ~dt:0. (Vec.of_list [ 1. ]) |> ignore);
  check_raises_invalid "reversed time" (fun () ->
      Ode.integrate ~f:decay ~t0:1. ~t1:0. ~dt:0.1 (Vec.of_list [ 1. ]) |> ignore)

let test_post_projection () =
  (* dx/dt = -1 with projection at 0: must stop at the boundary *)
  let f _t _x = Vec.of_list [ -1. ] in
  let post x = Vec.clamp ~lo:0. ~hi:10. x in
  let traj = Ode.integrate ~post ~f ~t0:0. ~t1:5. ~dt:0.1 (Vec.of_list [ 1. ]) in
  check_close "pinned at zero" 0. (Ode.final traj).(0)

let test_converged_at () =
  let f _t (x : Vec.t) = Vec.scale (-5.) x in
  let traj = Ode.integrate ~f ~t0:0. ~t1:10. ~dt:0.05 (Vec.of_list [ 1. ]) in
  (match Ode.converged_at ~tol:1e-9 traj with
  | Some t -> check_in_range "settles midway" ~lo:0.5 ~hi:10. t
  | None -> Alcotest.fail "expected settling");
  let short = Ode.integrate ~f ~t0:0. ~t1:0.2 ~dt:0.05 (Vec.of_list [ 1. ]) in
  check_true "no settling on short run" (Ode.converged_at ~tol:1e-9 short = None)

let prop_linear_system_matches_exponential =
  prop "rk4 solves dx/dt = a x to 1e-5" ~count:60
    QCheck2.Gen.(pair (float_range (-2.) 1.) (float_range 0.3 2.))
    (fun (a, x0) ->
      let f _t (x : Vec.t) = Vec.scale a x in
      let traj = Ode.integrate ~f ~t0:0. ~t1:1. ~dt:0.02 (Vec.of_list [ x0 ]) in
      Float.abs ((Ode.final traj).(0) -. (x0 *. exp a)) < 1e-5 *. (1. +. Float.abs x0))

let suite =
  ( "ode",
    [
      quick "rk4 accuracy" test_rk4_accuracy;
      quick "trajectory bookkeeping" test_trajectory_bookkeeping;
      quick "validation" test_validation;
      quick "post projection" test_post_projection;
      quick "converged_at" test_converged_at;
      prop_linear_system_matches_exponential;
    ] )
