open Numerics
open Subsidization
open Test_helpers

let game () = Subsidy_game.make (Fixtures.paper5 ()) ~price:0.8 ~cap:1.0

let test_br_trace_matches_nash () =
  let g = game () in
  let static = Nash.solve g in
  let trace = Dynamics.best_response_trace g ~x0:(Vec.zeros 8) in
  check_true "converged" trace.Gametheory.Best_response.converged;
  check_true "same point"
    (Vec.dist_inf trace.Gametheory.Best_response.profile static.Nash.subsidies < 1e-8)

(* the adjustment trace and the static solver run the same sweep loop on
   the same game from the same start, so they agree to the last bit *)
let test_br_trace_is_nash_solve () =
  let g = game () in
  let static = Nash.solve g in
  let trace = Dynamics.best_response_trace g ~x0:(Vec.zeros 8) in
  Array.iteri
    (fun i s ->
      Alcotest.(check int64)
        (Printf.sprintf "s_%d bit for bit" i)
        (Int64.bits_of_float static.Nash.subsidies.(i))
        (Int64.bits_of_float s))
    trace.Gametheory.Best_response.profile;
  Alcotest.(check int) "same sweeps" static.Nash.sweeps trace.Gametheory.Best_response.sweeps;
  Alcotest.(check int) "one move per sweep" trace.Gametheory.Best_response.sweeps
    (List.length trace.Gametheory.Best_response.moves)

let test_gradient_flow_matches_nash () =
  let g = game () in
  let static = Nash.solve g in
  let flow = Dynamics.gradient_flow g ~x0:(Vec.zeros 8) in
  check_true "stationary" flow.Gametheory.Gradient_dynamics.stationary;
  check_true "near static Nash"
    (Vec.dist_inf flow.Gametheory.Gradient_dynamics.final static.Nash.subsidies < 1e-4)

(* one Lemma-1 solve per profile: the flow's k RK4 steps evaluate the
   vector of marginals 4k times, the stationarity certificate once *)
let test_gradient_flow_solves_once_per_profile () =
  let g = game () in
  Numerics.Robust.reset_stats ();
  let steps = 10 in
  let horizon = 0.25 *. float_of_int steps in
  let _ = Dynamics.gradient_flow ~horizon ~dt:0.25 g ~x0:(Vec.zeros 8) in
  Alcotest.(check int) "root calls" ((4 * steps) + 1)
    (Numerics.Robust.stats ()).Numerics.Robust.root_calls

let test_compare_agrees () =
  let report = Dynamics.compare (game ()) in
  check_true "processes agree" report.Dynamics.agree

let test_compare_from_interior_start () =
  let report = Dynamics.compare ~x0:(Vec.make 8 0.5) (game ()) in
  check_true "agree from interior start" report.Dynamics.agree

let test_solve_vi_cross_validates () =
  let g = game () in
  let br = Nash.solve g in
  let vi = Nash.solve_vi ~tol:1e-9 g in
  check_true "vi converged" vi.Nash.converged;
  check_true "vi kkt small" (vi.Nash.kkt_residual < 1e-5);
  check_true "same equilibrium" (Vec.dist_inf vi.Nash.subsidies br.Nash.subsidies < 1e-5)

let test_solve_vi_on_tight_cap () =
  let g = Subsidy_game.make (Fixtures.paper5 ()) ~price:0.8 ~cap:0.3 in
  let br = Nash.solve g in
  let vi = Nash.solve_vi ~tol:1e-9 g in
  check_true "vi handles binding caps"
    (Vec.dist_inf vi.Nash.subsidies br.Nash.subsidies < 1e-5)

let suite =
  ( "dynamics",
    [
      quick "br trace matches nash" test_br_trace_matches_nash;
      quick "br trace is nash solve" test_br_trace_is_nash_solve;
      quick "gradient flow matches nash" test_gradient_flow_matches_nash;
      quick "gradient flow solves once per profile"
        test_gradient_flow_solves_once_per_profile;
      quick "compare agrees" test_compare_agrees;
      quick "compare from interior" test_compare_from_interior_start;
      quick "solve_vi cross-validates" test_solve_vi_cross_validates;
      quick "solve_vi with binding caps" test_solve_vi_on_tight_cap;
    ] )
