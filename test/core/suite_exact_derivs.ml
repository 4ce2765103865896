open Subsidization
open Test_helpers
module Vec = Numerics.Vec
module Mat = Numerics.Mat
module Dual = Numerics.Dual
module Linalg = Numerics.Linalg

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
      let exact = Numerics.Rank2.to_mat (Subsidy_game.marginal_jacobian_exact g ~subsidies:s) in
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

(* A family market (Fixtures.family_market: every demand, throughput
   and utilization family), a price (one draw in five prohibitive, so
   markets with only exponential and logit demand clear at phi = 0), a
   cap q and a profile whose coordinates sit at 0, at q or inside. *)
let family_point =
  QCheck2.Gen.(
    quad Fixtures.qcheck_seed
      (frequency [ (4, float_range 0.05 1.5); (1, return 1000.) ])
      (float_range 0.05 1.5)
      (list_size (return 8)
         (frequency [ (1, return 0.); (1, return 1.); (2, float_range 0. 1.) ])))

let print_family_point (seed, p, q, fractions) =
  let sys = Fixtures.family_market seed in
  Format.asprintf "family seed %d (%s), p %.17g, q %.17g, s = q * [%s]@.%a" seed
    (Econ.Utilization.label sys.System.utilization)
    p q
    (String.concat "; " (List.map (Printf.sprintf "%.17g") fractions))
    (Format.pp_print_array ~pp_sep:Format.pp_print_newline Econ.Cp.pp)
    sys.System.cps

let family_game_at (seed, p, q, fractions) =
  let g = Subsidy_game.make (Fixtures.family_market seed) ~price:p ~cap:q in
  let fractions = Array.of_list fractions in
  (g, Vec.init (Subsidy_game.dim g) (fun i -> q *. fractions.(i)))

let mat_max_abs m =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) acc row)
    0. (Mat.to_rows m)

let mat_finite m = Array.for_all (Array.for_all Float.is_finite) (Mat.to_rows m)

(* the rank-two build against the dual-column oracle over the same
   solved state, relative to the largest entry; wherever the oracle is
   finite, so is the build *)
let rank_two_matches_oracle g ~subsidies =
  let state = Subsidy_game.state g ~subsidies in
  let oracle = Fixtures.jacobian_by_columns ~state g ~subsidies in
  let built =
    Numerics.Rank2.to_mat (Subsidy_game.marginal_jacobian_exact ~state g ~subsidies)
  in
  (not (mat_finite oracle))
  || mat_finite built
     && mat_max_abs (Mat.sub built oracle) <= 1e-12 *. mat_max_abs oracle

let prop_rank_two_vs_oracle =
  prop "jacobian: rank-two vs dual columns" ~count:300 ~print:print_family_point
    family_point (fun point ->
      let g, s = family_game_at point in
      rank_two_matches_oracle g ~subsidies:s)

let test_rank_two_at_zero_utilization () =
  (* exponential and logit demand vanish at a prohibitive charge, so
     the market clears at phi = 0 without a root call *)
  let cps =
    [|
      Econ.Cp.make ~demand:(Econ.Demand.exponential ~alpha:2. ())
        ~throughput:(Econ.Throughput.rational ~beta:1.5 ()) ~value:1. ();
      Econ.Cp.make ~demand:(Econ.Demand.logit ~slope:3. ())
        ~throughput:(Econ.Throughput.exponential ~beta:2. ()) ~value:0.8 ();
    |]
  in
  List.iter
    (fun utilization ->
      let g =
        Subsidy_game.make (System.make ~utilization ~cps ~capacity:1. ()) ~price:1000.
          ~cap:0.5
      in
      let s = [| 0.2; 0.5 |] in
      let label = Econ.Utilization.label utilization in
      check_close ~tol:0. (label ^ ": phi") 0. (Subsidy_game.state g ~subsidies:s).System.phi;
      check_true (label ^ ": rank-two equals the oracle") (rank_two_matches_oracle g ~subsidies:s))
    [ Econ.Utilization.linear; Econ.Utilization.log_family ]

(* Two solves of one linear system differ by rounding amplified by the
   system's condition: a forward error near kappa * eps each. The
   agreement band is 1e-12 of the solution, widened by kappa_inf * 1e-14
   once the block is worse conditioned than 100. Over a million family
   draws of the Newton step the worst gap used 0.18 of this band. *)
let solves_agree block x_fast x_dense =
  let kappa = Linalg.condition_inf block in
  Vec.dist_inf x_fast x_dense
  <= Float.max 1e-12 (kappa *. 1e-14) *. Float.max (Vec.norm_inf x_dense) Float.min_float

(* the corrector's step by Woodbury against the dense LU step on the
   free block of to_mat, wherever the dense step exists *)
let newton_step_matches_lu point =
  let g, s = family_game_at point in
  let q = Subsidy_game.cap g in
  let n = Subsidy_game.dim g in
  let state = Subsidy_game.state g ~subsidies:s in
  let u = Subsidy_game.marginal_utilities ~state g ~subsidies:s in
  let jac = Subsidy_game.marginal_jacobian_exact ~state g ~subsidies:s in
  let dense = Numerics.Rank2.to_mat jac in
  let d = Vec.zeros n in
  let free = ref [] in
  for i = n - 1 downto 0 do
    let trial = s.(i) +. u.(i) in
    if trial <= 0. then d.(i) <- -.s.(i)
    else if trial >= q then d.(i) <- q -. s.(i)
    else free := i :: !free
  done;
  let free = Array.of_list !free in
  free = [||]
  ||
  let block = Mat.submatrix dense ~row_idx:free ~col_idx:free in
  let rhs =
    Array.map
      (fun k ->
        let acc = ref u.(k) in
        Array.iteri (fun j dj -> if not (Array.mem j free) then acc := !acc +. (Mat.get dense k j *. dj)) d;
        -. !acc)
      free
  in
  match Linalg.solve block rhs with
  | exception Linalg.Singular -> true
  | x when not (Array.for_all Float.is_finite x) -> true
  | x -> (
    Array.iteri (fun idx k -> d.(k) <- x.(idx)) free;
    match Nash.newton_direction ~cap:q jac s u with
    | exception Linalg.Singular -> QCheck2.Test.fail_report "woodbury declined a step LU solved"
    | step -> solves_agree block step d)

let prop_newton_step_vs_lu =
  prop "newton step: woodbury vs dense LU" ~count:300 ~print:print_family_point
    family_point newton_step_matches_lu

(* a draw whose first free CP has a diagonal entry 3.4e-8 against a
   low-rank part of 3.3e-4: plain Woodbury missed the LU step by
   1.2e-11 of its size (kappa 819, band 8.2e-12); with the refinement
   step the two agree to the last bit *)
let test_newton_step_small_diagonal () =
  check_true "within the agreement band"
    (newton_step_matches_lu
       (2421, 0.17480118789468285, 1.1603720589945805,
        [ 0.80064469635181812; 1.; 0.; 0.; 0.; 0.; 0.; 0. ]))

(* Theorem 6 by Woodbury against the same formulas on to_mat by LU *)
let prop_sensitivity_vs_lu =
  prop "ds/dq, ds/dp: woodbury vs dense LU" ~count:300 ~print:print_family_point
    family_point (fun point ->
      let g, s = family_game_at point in
      let part = Sensitivity.partition g ~subsidies:s in
      let interior = part.Sensitivity.interior in
      interior = [||]
      ||
      let state = Subsidy_game.state g ~subsidies:s in
      let dense = Numerics.Rank2.to_mat (Subsidy_game.marginal_jacobian_exact ~state g ~subsidies:s) in
      let block = Mat.submatrix dense ~row_idx:interior ~col_idx:interior in
      let dq_forcing =
        Array.map
          (fun k ->
            Array.fold_left (fun acc j -> acc +. Mat.get dense k j) 0. part.Sensitivity.upper)
          interior
      in
      let dup = Subsidy_game.marginal_utilities_dp ~state g ~subsidies:s in
      let dp_forcing = Array.map (fun k -> Dual.d dup.(k)) interior in
      let on_interior v = Array.map (fun k -> v.(k)) interior in
      let agree fast forcing =
        match Linalg.solve block (Vec.map (fun f -> -.f) forcing) with
        | exception Linalg.Singular -> true
        | x when not (Array.for_all Float.is_finite x) -> true
        | x -> (
          match fast () with
          | exception Linalg.Singular -> false
          | v -> solves_agree block (on_interior v) x)
      in
      agree (fun () -> Sensitivity.ds_dq ~state g ~subsidies:s) dq_forcing
      && agree (fun () -> Sensitivity.ds_dp ~state g ~subsidies:s) dp_forcing)

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

let test_oracle_primal () =
  (* the dual-column oracle's primal values are the marginal utilities *)
  let g = game () in
  let s = interior_profile g in
  let primal = Subsidy_game.marginal_utilities g ~subsidies:s in
  let col = (Fixtures.jacobian_columns g ~subsidies:s).(0) in
  Array.iteri
    (fun k (uk : float) ->
      check_true
        (Printf.sprintf "dual primal %d" k)
        (rel_close ~tol:1e-9 uk (Dual.v col.(k))))
    primal

let test_jacobian_from_one_state () =
  let g = game () in
  let s = interior_profile g in
  let by_column = Fixtures.jacobian_by_columns g ~subsidies:s in
  let root_calls () = (Numerics.Robust.stats ()).Numerics.Robust.root_calls in
  let passes () = (Numerics.Ad.stats ()).Numerics.Ad.passes in
  let before = root_calls () and passes_before = passes () in
  let exact = Subsidy_game.marginal_jacobian_exact g ~subsidies:s in
  Alcotest.(check int) "one Lemma-1 root call" 1 (root_calls () - before);
  check_close ~tol:0. "one AD pass" 1. (passes () -. passes_before);
  check_true "equals the column-by-column matrix"
    (Mat.approx_equal ~tol:1e-12 by_column (Numerics.Rank2.to_mat exact));
  let state = Subsidy_game.state g ~subsidies:s in
  let before = root_calls () in
  let reused = Subsidy_game.marginal_jacobian_exact ~state g ~subsidies:s in
  Alcotest.(check int) "none with the state in hand" 0 (root_calls () - before);
  check_true "same matrix from the caller's state"
    (Mat.approx_equal ~tol:1e-12 (Numerics.Rank2.to_mat exact) (Numerics.Rank2.to_mat reused))

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
      prop_rank_two_vs_oracle;
      quick "rank-two jacobian at phi = 0" test_rank_two_at_zero_utilization;
      prop_newton_step_vs_lu;
      quick "newton step: small free diagonal" test_newton_step_small_diagonal;
      prop_sensitivity_vs_lu;
      quick "default paths spend no stencils" test_default_paths_spend_no_stencils;
      prop_du_dprice_exact_vs_fd;
      quick "fused marginal pins" test_fused_marginal_pins;
      quick "duopoly fused marginal pins" test_duopoly_fused_marginal_pins;
      quick "dual-column oracle primal" test_oracle_primal;
      quick "jacobian from one state" test_jacobian_from_one_state;
      quick "nash agrees across modes" test_nash_agrees_across_modes;
    ] )
