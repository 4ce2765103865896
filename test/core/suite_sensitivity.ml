open Numerics
open Subsidization
open Test_helpers

let solved_game ?(price = 0.8) ?(cap = 0.4) () =
  let game = Subsidy_game.make (Fixtures.paper5 ()) ~price ~cap in
  (game, Nash.solve game)

let test_partition_matches_classes () =
  let game, eq = solved_game () in
  let part = Sensitivity.partition game ~subsidies:eq.Nash.subsidies in
  let total =
    Array.length part.Sensitivity.lower
    + Array.length part.Sensitivity.interior
    + Array.length part.Sensitivity.upper
  in
  Alcotest.(check int) "partition covers all CPs" (Subsidy_game.dim game) total;
  Array.iter
    (fun i -> check_true "lower means zero" (eq.Nash.subsidies.(i) <= 1e-6))
    part.Sensitivity.lower;
  Array.iter
    (fun i -> check_true "upper means cap" (eq.Nash.subsidies.(i) >= 0.4 -. 1e-6))
    part.Sensitivity.upper

let test_jacobian_shape_and_symmetry_of_diagonal_sign () =
  let game, eq = solved_game () in
  let j = Rank2.to_mat (Subsidy_game.marginal_jacobian_exact game ~subsidies:eq.Nash.subsidies) in
  Alcotest.(check int) "square" (Subsidy_game.dim game) (Mat.rows j);
  (* utilities are locally concave at interior first-order points (the
     corners can sit on convex stretches, so only check the interior) *)
  let part = Sensitivity.partition game ~subsidies:eq.Nash.subsidies in
  Array.iter
    (fun i -> check_true "du_i/ds_i < 0 on the interior" (Mat.get j i i < 0.))
    part.Sensitivity.interior

let resolve sys ~price ~cap ~x0 =
  (Nash.solve ~x0:(Vec.clamp ~lo:0. ~hi:cap x0) (Subsidy_game.make sys ~price ~cap)).Nash.subsidies

let test_ds_dq_matches_fd () =
  let game, eq = solved_game () in
  let s = eq.Nash.subsidies in
  let sys = Fixtures.paper5 () in
  let formula = Sensitivity.ds_dq game ~subsidies:s in
  let h = 1e-4 in
  let plus = resolve sys ~price:0.8 ~cap:(0.4 +. h) ~x0:s in
  let minus = resolve sys ~price:0.8 ~cap:(0.4 -. h) ~x0:s in
  let part = Sensitivity.partition game ~subsidies:s in
  Array.iter
    (fun i ->
      let numeric = (plus.(i) -. minus.(i)) /. (2. *. h) in
      check_close ~tol:5e-3 (Printf.sprintf "ds_%d/dq" i) numeric formula.(i))
    part.Sensitivity.interior;
  Array.iter (fun i -> check_close "upper slope 1" 1. formula.(i)) part.Sensitivity.upper;
  Array.iter (fun i -> check_close "lower slope 0" 0. formula.(i)) part.Sensitivity.lower

let test_ds_dp_matches_fd () =
  let game, eq = solved_game () in
  let s = eq.Nash.subsidies in
  let sys = Fixtures.paper5 () in
  let formula = Sensitivity.ds_dp game ~subsidies:s in
  let h = 1e-4 in
  let plus = resolve sys ~price:(0.8 +. h) ~cap:0.4 ~x0:s in
  let minus = resolve sys ~price:(0.8 -. h) ~cap:0.4 ~x0:s in
  let part = Sensitivity.partition game ~subsidies:s in
  Array.iter
    (fun i ->
      let numeric = (plus.(i) -. minus.(i)) /. (2. *. h) in
      check_close ~tol:5e-3 (Printf.sprintf "ds_%d/dp" i) numeric formula.(i))
    part.Sensitivity.interior

let test_policy_effect_fixed_price () =
  let game, eq = solved_game () in
  let effect = Sensitivity.policy_effect game ~subsidies:eq.Nash.subsidies in
  check_close "default dp/dq" 0. effect.Sensitivity.dp_dq;
  (* with subsidies rising and price fixed, charges fall and populations rise *)
  let part = Sensitivity.partition game ~subsidies:eq.Nash.subsidies in
  Array.iter
    (fun i ->
      check_true "charge falls for pinned CPs" (effect.Sensitivity.dcharge_dq.(i) < 0.);
      check_true "population rises" (effect.Sensitivity.dpopulation_dq.(i) > 0.))
    part.Sensitivity.upper;
  check_true "utilization rises (Corollary 1)" (effect.Sensitivity.dphi_dq >= 0.);
  (* rates fall with congestion *)
  Array.iteri
    (fun i dr ->
      ignore i;
      check_true "per-user rate falls" (dr <= 1e-12))
    effect.Sensitivity.drate_dq

let test_policy_effect_dphi_matches_fd () =
  let game, eq = solved_game () in
  let s = eq.Nash.subsidies in
  let sys = Fixtures.paper5 () in
  let effect = Sensitivity.policy_effect game ~subsidies:s in
  let h = 1e-4 in
  let phi_at cap =
    (Nash.solve ~x0:(Vec.clamp ~lo:0. ~hi:cap s) (Subsidy_game.make sys ~price:0.8 ~cap))
      .Nash.state.System.phi
  in
  let numeric = (phi_at (0.4 +. h) -. phi_at (0.4 -. h)) /. (2. *. h) in
  check_close ~tol:1e-3 "dphi/dq vs FD" numeric effect.Sensitivity.dphi_dq

let test_condition17_sign_agreement () =
  let game, eq = solved_game () in
  let s = eq.Nash.subsidies in
  let sys = Fixtures.paper5 () in
  let effect = Sensitivity.policy_effect game ~subsidies:s in
  let h = 1e-4 in
  for i = 0 to Subsidy_game.dim game - 1 do
    let th_at cap =
      (Nash.solve ~x0:(Vec.clamp ~lo:0. ~hi:cap s) (Subsidy_game.make sys ~price:0.8 ~cap))
        .Nash.state.System.throughputs.(i)
    in
    let numeric = (th_at (0.4 +. h) -. th_at (0.4 -. h)) /. (2. *. h) in
    let margin = Sensitivity.condition17_margin game effect ~state:eq.Nash.state i in
    if Float.abs numeric > 1e-5 && Float.abs margin > 1e-6 then
      check_true
        (Printf.sprintf "condition 17 sign for CP %d" i)
        ((margin > 0.) = (numeric > 0.))
  done

let test_empty_interior_short_circuits () =
  (* with cap 0 everyone is at the lower corner; derivatives are all 0 *)
  let game = Subsidy_game.make (Fixtures.paper5 ()) ~price:0.8 ~cap:0. in
  let s = Vec.zeros 8 in
  let dq = Sensitivity.ds_dq game ~subsidies:s in
  (* note: with cap=0 the lower and upper corners coincide; classification
     marks them Lower first, so slopes are 0 *)
  Array.iter (fun d -> check_close "no interior motion" 0. d) dq

let suite =
  ( "sensitivity",
    [
      quick "partition" test_partition_matches_classes;
      quick "jacobian diagonal" test_jacobian_shape_and_symmetry_of_diagonal_sign;
      quick "ds/dq vs FD" test_ds_dq_matches_fd;
      quick "ds/dp vs FD" test_ds_dp_matches_fd;
      quick "policy effect signs" test_policy_effect_fixed_price;
      quick "dphi/dq vs FD" test_policy_effect_dphi_matches_fd;
      quick "condition 17 signs" test_condition17_sign_agreement;
      quick "empty interior" test_empty_interior_short_circuits;
    ] )
