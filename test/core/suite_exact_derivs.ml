open Subsidization
open Test_helpers
module Vec = Numerics.Vec
module Mat = Numerics.Mat
module Dual = Numerics.Dual

(* The exact (dual-number) derivative paths against finite-difference
   stencil oracles: the continuation solver and the Theorem-6/8
   sensitivity analysis are only as sound as these agree. FD carries
   O(h^2) truncation error through a nested equilibrium solve, so the
   pins use a looser band than the pure-kernel tests in test/econ. *)

let rel_close ~tol expected actual =
  Float.abs (actual -. expected) <= tol *. (1. +. Float.abs expected)

let game () =
  Subsidy_game.make (Fixtures.paper3 ()) ~price:0.8 ~cap:0.6

let interior_profile g =
  let n = Subsidy_game.dim g in
  Vec.init n (fun i -> 0.1 +. (0.05 *. float_of_int i))

(* A random market (Fixtures.random_system seed, 2-8 CPs), a price, a
   cap q and a profile in [0,q]^n: the first n of eight fractions of q. *)
let random_point =
  QCheck2.Gen.(
    quad Fixtures.qcheck_seed (float_range 0.1 1.5) (float_range 0.05 1.)
      (list_size (return 8) (float_range 0. 1.)))

let print_point (seed, p, q, fractions) =
  let cps = (Fixtures.random_system seed).System.cps in
  Format.asprintf "seed %d, p %.17g, q %.17g, s = q * [%s]@.%a" seed p q
    (String.concat "; " (List.map (Printf.sprintf "%.17g") fractions))
    (Format.pp_print_array ~pp_sep:Format.pp_print_newline Econ.Cp.pp)
    cps

let game_at (seed, p, q, fractions) =
  let g = Subsidy_game.make (Fixtures.random_system seed) ~price:p ~cap:q in
  let fractions = Array.of_list fractions in
  (g, Vec.init (Subsidy_game.dim g) (fun i -> q *. fractions.(i)))

let prop_jacobian_exact_vs_fd =
  prop "jacobian: exact vs stencil" ~count:100 ~print:print_point random_point
    (fun point ->
      let g, s = game_at point in
      let exact = Subsidy_game.marginal_jacobian_exact g ~subsidies:s in
      let fd =
        Numerics.Diff.jacobian ~h:1e-6
          (fun s -> Subsidy_game.marginal_utilities g ~subsidies:s)
          s
      in
      let n = Subsidy_game.dim g in
      List.for_all
        (fun i ->
          List.for_all
            (fun j -> rel_close ~tol:1e-4 (Mat.get fd i j) (Mat.get exact i j))
            (List.init n Fun.id))
        (List.init n Fun.id))

let prop_du_dprice_exact_vs_fd =
  prop "du/dprice: exact vs stencil" ~count:100 ~print:print_point random_point
    (fun point ->
      let g, s = game_at point in
      let exact = Subsidy_game.marginal_utilities_dp g ~subsidies:s in
      (* price is the only coordinate: column 0 is du/dp *)
      let fd =
        Numerics.Diff.jacobian ~h:1e-6
          (fun p ->
            Subsidy_game.marginal_utilities (Subsidy_game.with_price g p.(0))
              ~subsidies:s)
          [| Subsidy_game.price g |]
      in
      Array.for_all Fun.id
        (Array.mapi
           (fun k d -> rel_close ~tol:1e-4 (Mat.get fd k 0) (Dual.d d))
           exact))

let test_default_paths_spend_no_stencils () =
  (* every solver and theorem path runs on exact duals: none of them may
     fall back to a difference stencil *)
  Numerics.Diff.reset_stats ();
  let g = game () in
  let eq = Nash.solve g in
  let subsidies = eq.Nash.subsidies in
  ignore (Sensitivity.policy_effect ~dp_dq:0.3 g ~subsidies);
  ignore (Revenue.marginal_formula g ~subsidies);
  ignore (Nash.off_diagonal_monotone g ~subsidies);
  ignore (Nash.jacobian_is_p_matrix g ~subsidies);
  ignore (Revenue.curve g ~prices:[| 0.6; 0.7; 0.8; 0.9 |]);
  ignore
    (Duopoly.price_equilibrium
       (Duopoly.make ~cps:(Scenario.fig45_cps ()) ~capacity_a:0.5 ~capacity_b:0.5
          ~cap:1. ()));
  check_close ~tol:0. "difference stencils taken" 0.
    (Numerics.Diff.stats ()).Numerics.Diff.estimates

let test_fused_marginal_pins () =
  let g = game () in
  let s = interior_profile g in
  let n = Subsidy_game.dim g in
  for i = 0 to n - 1 do
    let u, du = Subsidy_game.fused_marginal g i s s.(i) in
    (* value pin: the fused objective IS the analytic marginal utility *)
    check_true
      (Printf.sprintf "fused value %d" i)
      (rel_close ~tol:1e-9 (Subsidy_game.marginal_utility g ~subsidies:s i) u);
    (* slope pin: central difference of the fused value in s_i *)
    let h = 1e-5 in
    let up, _ = Subsidy_game.fused_marginal g i s (s.(i) +. h) in
    let um, _ = Subsidy_game.fused_marginal g i s (s.(i) -. h) in
    check_true
      (Printf.sprintf "fused slope %d: %.8g vs stencil %.8g" i du
         ((up -. um) /. (2. *. h)))
      (rel_close ~tol:1e-4 ((up -. um) /. (2. *. h)) du)
  done

let test_duopoly_fused_marginal_pins () =
  let cps = Scenario.fig7_11_cps () in
  let d = Duopoly.make ~cps ~capacity_a:0.5 ~capacity_b:0.5 ~cap:1. () in
  let prices = (0.9, 1.1) in
  let n = Array.length cps in
  let s = Vec.init n (fun i -> 0.05 +. (0.03 *. float_of_int i)) in
  for i = 0 to n - 1 do
    let _, du = Duopoly.fused_marginal d ~prices i s s.(i) in
    let h = 1e-5 in
    let up, _ = Duopoly.fused_marginal d ~prices i s (s.(i) +. h) in
    let um, _ = Duopoly.fused_marginal d ~prices i s (s.(i) -. h) in
    check_true
      (Printf.sprintf "duopoly fused slope %d: %.8g vs stencil %.8g" i du
         ((up -. um) /. (2. *. h)))
      (rel_close ~tol:1e-4 ((up -. um) /. (2. *. h)) du)
  done

let test_marginal_utilities_d_primal () =
  let g = game () in
  let s = interior_profile g in
  let primal = Subsidy_game.marginal_utilities g ~subsidies:s in
  let col = Subsidy_game.marginal_utilities_d g ~subsidies:s 0 in
  Array.iteri
    (fun k (uk : float) ->
      check_true
        (Printf.sprintf "dual primal %d" k)
        (rel_close ~tol:1e-9 uk (Dual.v col.(k))))
    primal

let test_jacobian_from_one_state () =
  let g = game () in
  let s = interior_profile g in
  let n = Subsidy_game.dim g in
  (* the column-by-column matrix: one Lemma-1 solve per column *)
  let columns = Array.init n (fun j -> Subsidy_game.marginal_utilities_d g ~subsidies:s j) in
  let by_column = Mat.init ~rows:n ~cols:n (fun k j -> Dual.d columns.(j).(k)) in
  let root_calls () = (Numerics.Robust.stats ()).Numerics.Robust.root_calls in
  let before = root_calls () in
  let exact = Subsidy_game.marginal_jacobian_exact g ~subsidies:s in
  Alcotest.(check int) "one Lemma-1 root call" 1 (root_calls () - before);
  check_true "equals the column-by-column matrix" (Mat.approx_equal ~tol:1e-12 by_column exact);
  let state = Subsidy_game.state g ~subsidies:s in
  let before = root_calls () in
  let reused = Subsidy_game.marginal_jacobian_exact ~state g ~subsidies:s in
  Alcotest.(check int) "none with the state in hand" 0 (root_calls () - before);
  check_true "same matrix from the caller's state" (Mat.approx_equal ~tol:1e-12 exact reused)

let test_nash_agrees_across_modes () =
  (* the end-to-end pin: the fused Newton respond and the grid-scan
     respond must find the same equilibrium *)
  let g = game () in
  let fused = Nash.solve g in
  let scan = Nash.solve ~fused:false g in
  check_true "both converged" (fused.Nash.converged && scan.Nash.converged);
  Array.iteri
    (fun i si ->
      check_true
        (Printf.sprintf "s_%d: fused %.8g vs scan %.8g" i si scan.Nash.subsidies.(i))
        (Float.abs (si -. scan.Nash.subsidies.(i)) <= 1e-5))
    fused.Nash.subsidies

let suite =
  ( "exact-derivs",
    [
      prop_jacobian_exact_vs_fd;
      quick "default paths spend no stencils" test_default_paths_spend_no_stencils;
      prop_du_dprice_exact_vs_fd;
      quick "fused marginal pins" test_fused_marginal_pins;
      quick "duopoly fused marginal pins" test_duopoly_fused_marginal_pins;
      quick "marginal_utilities_d primal" test_marginal_utilities_d_primal;
      quick "jacobian from one state" test_jacobian_from_one_state;
      quick "nash agrees across modes" test_nash_agrees_across_modes;
    ] )
