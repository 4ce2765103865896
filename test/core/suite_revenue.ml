open Subsidization
open Test_helpers

let solved ?(price = 0.8) ?(cap = 0.4) () =
  let game = Subsidy_game.make (Fixtures.paper5 ()) ~price ~cap in
  (game, Nash.solve game)

let test_at_equilibrium () =
  let game, eq = solved () in
  check_close ~tol:1e-12 "R = p theta"
    (0.8 *. eq.Nash.state.System.aggregate)
    (Revenue.at_equilibrium game eq)

let test_upsilon_below_one () =
  (* Upsilon = 1 + sum of negative terms: below 1, and typically positive
     for moderate congestion *)
  let game, eq = solved () in
  let u = Revenue.upsilon game ~subsidies:eq.Nash.subsidies in
  check_true "upsilon < 1" (u < 1.)

let test_price_elasticities_negative () =
  let game, eq = solved () in
  let eps = Revenue.price_elasticities game ~subsidies:eq.Nash.subsidies in
  Array.iter (fun e -> check_true "demand elasticity negative" (e < 0.)) eps;
  let zero_price_game = Subsidy_game.make (Fixtures.paper5 ()) ~price:0. ~cap:0.4 in
  check_raises_invalid "p = 0 rejected" (fun () ->
      Revenue.price_elasticities zero_price_game ~subsidies:eq.Nash.subsidies |> ignore)

let test_theorem7_formula_vs_numeric () =
  List.iter
    (fun (price, cap) ->
      let game, eq = solved ~price ~cap () in
      let formula = Revenue.marginal_formula game ~subsidies:eq.Nash.subsidies in
      let numeric = Revenue.marginal_numeric ~h:1e-4 game in
      check_close ~tol:5e-2 (Printf.sprintf "dR/dp at p=%g q=%g" price cap) numeric
        formula)
    [ (0.8, 0.4); (0.5, 1.0); (1.2, 0.2) ]

let test_curve_warm_start_consistency () =
  let game = Subsidy_game.make (Fixtures.paper5 ()) ~price:0. ~cap:0.5 in
  let prices = [| 0.3; 0.6; 0.9 |] in
  let curve = Revenue.curve game ~prices in
  Array.iter
    (fun (p, eq, r) ->
      (* warm-started points must match cold solves *)
      let cold = Nash.solve (Subsidy_game.make (Fixtures.paper5 ()) ~price:p ~cap:0.5) in
      check_close ~tol:1e-6 "warm = cold subsidies"
        (Numerics.Vec.dist_inf eq.Nash.subsidies cold.Nash.subsidies)
        0.;
      check_close ~tol:1e-8 "revenue consistent"
        (p *. eq.Nash.state.System.aggregate) r)
    curve

let test_optimal_price () =
  let game = Subsidy_game.make (Fixtures.paper5 ()) ~price:0. ~cap:1.0 in
  let p_star, _, r_star = Revenue.optimal_price ~p_max:2.5 game in
  check_in_range "interior optimum" ~lo:0.05 ~hi:2.45 p_star;
  (* dominates a coarse scan *)
  Array.iter
    (fun p ->
      let g = Subsidy_game.with_price game p in
      let r = Revenue.at_equilibrium g (Nash.solve g) in
      check_true "optimum dominates scan" (r_star >= r -. 1e-4))
    (Numerics.Grid.linspace 0.1 2.4 12)

let test_optimal_price_matches_golden_search () =
  (* the Theorem-7 root against a golden search on R itself, each R
     from a cold best-response solve *)
  List.iter
    (fun cap ->
      let game = Subsidy_game.make (Fixtures.paper5 ()) ~price:0. ~cap in
      let p_star, eq, r_star = Revenue.optimal_price ~p_max:2.5 game in
      let revenue_at p =
        let g = Subsidy_game.with_price game p in
        Revenue.at_equilibrium g (Nash.solve g)
      in
      let golden =
        let h = 2.5 /. 48. in
        let scan = Numerics.Optimize.argmax_on_grid revenue_at (Numerics.Grid.linspace 0. 2.5 49) in
        let x = scan.Numerics.Optimize.x in
        Numerics.Optimize.golden_section ~tol:1e-7 revenue_at ~lo:(Float.max 0. (x -. h))
          ~hi:(Float.min 2.5 (x +. h))
      in
      let name = Printf.sprintf "q=%g" cap in
      check_close ~tol:1e-5 (name ^ ": p* = golden argmax") golden.Numerics.Optimize.x p_star;
      check_close ~tol:1e-9 (name ^ ": R* = golden max") golden.Numerics.Optimize.fx r_star;
      (* the equilibrium handed back is the one at p* *)
      let cold = Nash.solve (Subsidy_game.with_price game p_star) in
      check_true (name ^ ": equilibrium at p*")
        (Numerics.Vec.dist_inf eq.Nash.subsidies cold.Nash.subsidies <= 1e-8);
      check_close ~tol:1e-12 (name ^ ": R* = p* theta") (p_star *. eq.Nash.state.System.aggregate)
        r_star)
    [ 0.5; 1.0 ]

let suite =
  ( "revenue",
    [
      quick "at equilibrium" test_at_equilibrium;
      quick "upsilon" test_upsilon_below_one;
      quick "price elasticities" test_price_elasticities_negative;
      quick "theorem 7 formula" test_theorem7_formula_vs_numeric;
      quick "curve warm start" test_curve_warm_start_consistency;
      quick "optimal price" test_optimal_price;
      quick "optimal price matches golden search" test_optimal_price_matches_golden_search;
    ] )
