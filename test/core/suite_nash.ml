open Numerics
open Subsidization
open Test_helpers

let paper_game ?(price = 0.8) ?(cap = 1.0) () =
  Subsidy_game.make (Fixtures.paper5 ()) ~price ~cap

let test_solve_converges () =
  let eq = Nash.solve (paper_game ()) in
  check_true "converged" eq.Nash.converged;
  check_true "kkt small" (eq.Nash.kkt_residual < 1e-6);
  Array.iter
    (fun s -> check_in_range "subsidy in box" ~lo:0. ~hi:1.0 s)
    eq.Nash.subsidies

let test_classification () =
  let game = paper_game ~cap:0.4 () in
  let eq = Nash.solve game in
  let part_count c =
    Array.fold_left (fun acc x -> if x = c then acc + 1 else acc) 0 eq.Nash.classes
  in
  check_true "some CP refrains" (part_count Nash.Lower > 0);
  check_true "some CP pinned at cap" (part_count Nash.Upper > 0);
  Array.iteri
    (fun i c ->
      match c with
      | Nash.Lower -> check_true "lower is ~0" (eq.Nash.subsidies.(i) <= 1e-6)
      | Nash.Upper -> check_true "upper is ~q" (eq.Nash.subsidies.(i) >= 0.4 -. 1e-6)
      | Nash.Interior ->
        check_in_range "interior strictly inside" ~lo:1e-7 ~hi:(0.4 -. 1e-7)
          eq.Nash.subsidies.(i))
    eq.Nash.classes

let test_no_subsidy_under_zero_cap () =
  let eq = Nash.solve (paper_game ~cap:0. ()) in
  Array.iter (fun s -> check_close "all zero" 0. s) eq.Nash.subsidies

let test_equilibrium_is_best_response_fixed_point () =
  let game = paper_game () in
  let eq = Nash.solve game in
  let br = Subsidy_game.to_game game in
  Array.iteri
    (fun i si ->
      let reply = Gametheory.Best_response.respond br i eq.Nash.subsidies in
      check_close ~tol:1e-6 (Printf.sprintf "CP %d cannot deviate" i) si reply)
    eq.Nash.subsidies

let test_unilateral_deviations_unprofitable () =
  let game = paper_game () in
  let eq = Nash.solve game in
  let rng = Rng.create 12L in
  for i = 0 to Subsidy_game.dim game - 1 do
    for _ = 1 to 5 do
      let deviation = Rng.uniform rng ~lo:0. ~hi:1. in
      let s' = Vec.copy eq.Nash.subsidies in
      s'.(i) <- deviation;
      check_true "no profitable deviation"
        (Subsidy_game.utility game ~subsidies:s' i
        <= eq.Nash.utilities.(i) +. 1e-7)
    done
  done

let test_threshold_consistency () =
  let game = paper_game () in
  let eq = Nash.solve game in
  check_true "theorem 3 fixed-point form"
    (Nash.threshold_consistency game ~subsidies:eq.Nash.subsidies < 1e-6)

let test_multistart_unique () =
  let game = paper_game () in
  let spread = Nash.multistart_spread ~starts:4 (Rng.create 5L) game in
  check_true "unique equilibrium" (spread < 1e-7)

let test_stability_conditions () =
  let game = paper_game () in
  let eq = Nash.solve game in
  check_true "off-diagonal monotone (Corollary 1 condition)"
    (Nash.off_diagonal_monotone game ~subsidies:eq.Nash.subsidies);
  check_true "-grad u is a P-matrix (Theorem 4 condition)"
    (Nash.jacobian_is_p_matrix game ~subsidies:eq.Nash.subsidies)

let test_theorem5_value_monotonicity () =
  let sys = Fixtures.paper5 () in
  let base = Nash.solve (Subsidy_game.make sys ~price:0.8 ~cap:1.) in
  let cps = Array.copy sys.System.cps in
  cps.(0) <- { cps.(0) with Econ.Cp.value = cps.(0).Econ.Cp.value +. 0.4 };
  let richer = System.make ~cps ~capacity:sys.System.capacity () in
  let bumped = Nash.solve (Subsidy_game.make richer ~price:0.8 ~cap:1.) in
  check_true "richer CP subsidizes more"
    (bumped.Nash.subsidies.(0) >= base.Nash.subsidies.(0) -. 1e-9)

let prop_nash_kkt_on_random_games =
  prop "Nash solver produces KKT-certified equilibria on random markets" ~count:25
    QCheck2.Gen.(triple Fixtures.qcheck_seed (float_range 0.2 1.5) (float_range 0.1 1.5))
    (fun (seed, p, q) ->
      let sys = Fixtures.random_system seed in
      let game = Subsidy_game.make sys ~price:p ~cap:q in
      let eq = Nash.solve game in
      eq.Nash.converged && eq.Nash.kkt_residual < 1e-5)

let prop_corollary1_revenue_monotone_in_cap =
  prop "revenue weakly rises when the cap is relaxed" ~count:20
    QCheck2.Gen.(pair Fixtures.qcheck_seed (float_range 0.2 1.2))
    (fun (seed, p) ->
      let sys = Fixtures.random_system seed in
      let r_at cap =
        let game = Subsidy_game.make sys ~price:p ~cap in
        let eq = Nash.solve game in
        p *. eq.Nash.state.System.aggregate
      in
      r_at 0.6 >= r_at 0.3 -. 1e-6)

(* How far apart two KKT-certified profiles of one market may lie. Near
   a regular equilibrium the marginals on the interior CPs F grow like
   J_FF (s_F - s*_F), so each profile sits within ||J_FF^-1||_inf times
   its residual of the exact one; 1e-8 floors it on well-conditioned
   markets. A singular J_FF has no isolated equilibrium to bound. *)
let certified_distance game (eq : Nash.equilibrium) ~r_newton =
  let free =
    Array.of_list
      (List.filter
         (fun i -> eq.Nash.classes.(i) = Nash.Interior)
         (List.init (Vec.dim eq.Nash.subsidies) Fun.id))
  in
  let spread =
    if free = [||] then 0.
    else
      let jac =
        Rank2.to_mat
          (Subsidy_game.marginal_jacobian_exact ~state:eq.Nash.state game
             ~subsidies:eq.Nash.subsidies)
      in
      match Linalg.inverse (Mat.submatrix jac ~row_idx:free ~col_idx:free) with
      | inv -> Mat.norm_inf inv *. (r_newton +. eq.Nash.kkt_residual)
      | exception Linalg.Singular -> Float.infinity
  in
  Float.max 1e-8 spread

let newton_agrees_with_best_response (seed, p, q, noise) =
  let game = Subsidy_game.make (Fixtures.family_market seed) ~price:p ~cap:q in
  let eq = Nash.solve game in
  QCheck2.assume eq.Nash.converged;
  (* a predictor off the equilibrium by up to 5% of the box *)
  let rng = Rng.create (Int64.of_int noise) in
  let x0 =
    Vec.map (fun si -> si +. Rng.uniform rng ~lo:(-0.05 *. q) ~hi:(0.05 *. q)) eq.Nash.subsidies
  in
  let corrected = Nash.correct ~x0 game in
  corrected.Nash.converged
  && Vec.dist_inf corrected.Nash.subsidies eq.Nash.subsidies
     <= certified_distance game eq ~r_newton:corrected.Nash.kkt_residual
  && corrected.Nash.kkt_residual <= 1e-9
  && eq.Nash.kkt_residual <= 1e-9

let prop_newton_corrector_agrees_with_best_response =
  prop "newton corrector agrees with best response on family markets" ~count:200
    QCheck2.Gen.(quad Fixtures.qcheck_seed (float_range 0.2 1.5) (float_range 0.1 1.5) int)
    newton_agrees_with_best_response

(* the market QCHECK_SEED=370751404 shrank to: both solves certify KKT
   residuals near 2e-12, yet their profiles differ by 1.0e-8, because
   its interior Jacobian is ill-conditioned *)
let test_newton_agrees_on_ill_conditioned_market () =
  check_true "within the certified distance"
    (newton_agrees_with_best_response (8607, 0.4, 0.75189160367458563, 1272671121456855950))

let test_newton_falls_back () =
  let game = paper_game ~price:0.3 ~cap:1.0 () in
  let cold = Nash.solve game in
  let fallbacks () = (Continuation.stats ()).Continuation.fallbacks in
  List.iter
    (fun (name, x0) ->
      let before = fallbacks () in
      let eq = Nash.correct ~x0 game in
      check_close (name ^ ": handed to best response") (before +. 1.) (fallbacks ());
      check_true (name ^ ": converged") eq.Nash.converged;
      check_true (name ^ ": same equilibrium")
        (Vec.dist_inf eq.Nash.subsidies cold.Nash.subsidies <= 1e-8))
    [
      (* far from the equilibrium the projection guesses the wrong
         active set, and Newton stalls before its residual test *)
      ("empty profile", Vec.zeros 8);
      ("far corner", Vec.make 8 1.0);
    ]

let test_newton_counts_corrector_steps () =
  let game = paper_game () in
  let cold = Nash.solve game in
  let iters () = (Continuation.stats ()).Continuation.corrector_iterations in
  let before = iters () in
  let eq = Nash.correct ~x0:(Vec.map (fun s -> 0.98 *. s) cold.Nash.subsidies) game in
  check_true "converged" eq.Nash.converged;
  check_true "a few newton steps" (eq.Nash.sweeps >= 1 && eq.Nash.sweeps <= 6);
  check_close "steps on the corrector counter" (before +. float_of_int eq.Nash.sweeps) (iters ());
  check_true "certified" (eq.Nash.kkt_residual <= 1e-9)

let test_newton_step_singular_free_diagonal () =
  (* both CPs are free (0 < s_i + u_i < q); CP 0's diagonal entry is 0,
     so the free block has no Woodbury factorization *)
  let jac =
    {
      Rank2.diag = [| 0.; -1. |];
      a = [| 0.3; 0.1 |];
      w = [| 0.2; 0.4 |];
      b = [| 0.05; 0.02 |];
      z = [| 0.1; 0.3 |];
    }
  in
  match Nash.newton_direction ~cap:1. jac [| 0.5; 0.5 |] [| 0.1; -0.1 |] with
  | _ -> Alcotest.fail "expected Linalg.Singular"
  | exception Linalg.Singular -> ()

let suite =
  ( "nash",
    [
      quick "solve converges" test_solve_converges;
      quick "classification" test_classification;
      quick "zero cap" test_no_subsidy_under_zero_cap;
      quick "best-response fixed point" test_equilibrium_is_best_response_fixed_point;
      quick "deviations unprofitable" test_unilateral_deviations_unprofitable;
      quick "threshold consistency" test_threshold_consistency;
      quick "multistart unique" test_multistart_unique;
      quick "stability conditions" test_stability_conditions;
      quick "theorem 5" test_theorem5_value_monotonicity;
      quick "newton falls back" test_newton_falls_back;
      quick "newton counts corrector steps" test_newton_counts_corrector_steps;
      quick "newton step: zero free diagonal is singular"
        test_newton_step_singular_free_diagonal;
      prop_nash_kkt_on_random_games;
      prop_newton_corrector_agrees_with_best_response;
      quick "newton agrees on an ill-conditioned market"
        test_newton_agrees_on_ill_conditioned_market;
      prop_corollary1_revenue_monotone_in_cap;
    ] )
