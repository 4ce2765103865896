open Numerics
open Gametheory
open Test_helpers

let test_respond_interior () =
  let game, star = Game_fixtures.cournot () in
  (* best reply to the opponent playing the equilibrium is the equilibrium *)
  let reply = Best_response.respond game 0 (Vec.of_list [ 0.9; star ]) in
  check_close ~tol:1e-9 "interior reply" star reply

let test_respond_corner () =
  let game, _ = Game_fixtures.corner_game () in
  let reply = Best_response.respond game 0 (Vec.of_list [ 0.; 0.2 ]) in
  check_close ~tol:1e-9 "cornered reply" 0.2 reply

let test_solve_gauss_seidel () =
  let game, star = Game_fixtures.cournot () in
  let out = Best_response.solve game ~x0:(Vec.zeros 2) in
  check_true "converged" out.Best_response.converged;
  check_close ~tol:1e-8 "gs x0" star out.Best_response.profile.(0);
  check_close ~tol:1e-8 "gs x1" star out.Best_response.profile.(1)

let test_solve_jacobi () =
  let game, star = Game_fixtures.cournot () in
  let out = Best_response.solve ~scheme:Best_response.Jacobi game ~x0:(Vec.zeros 2) in
  check_true "jacobi converged" out.Best_response.converged;
  check_close ~tol:1e-8 "jacobi x" star out.Best_response.profile.(0)

let test_derivative_free_agrees () =
  let game, star = Game_fixtures.cournot_derivative_free () in
  let out = Best_response.solve ~tol:1e-8 game ~x0:(Vec.zeros 2) in
  check_true "df converged" out.Best_response.converged;
  check_close ~tol:1e-5 "df equilibrium" star out.Best_response.profile.(0)

let test_damping_validation () =
  let game, _ = Game_fixtures.cournot () in
  check_raises_invalid "damping 0" (fun () ->
      Best_response.solve ~damping:0. game ~x0:(Vec.zeros 2) |> ignore);
  check_raises_invalid "bad x0 dim" (fun () ->
      Best_response.solve game ~x0:(Vec.zeros 3) |> ignore)

let test_unconverged_flagged () =
  let game, _ = Game_fixtures.cournot () in
  let out = Best_response.solve ~max_sweeps:1 ~tol:1e-14 game ~x0:(Vec.zeros 2) in
  check_true "not converged after one sweep" (not out.Best_response.converged)

let test_multistart () =
  let game, star = Game_fixtures.cournot () in
  let rng = Rng.create 77L in
  let outs = Best_response.solve_multistart ~starts:5 rng game in
  Alcotest.(check int) "five starts" 5 (List.length outs);
  List.iter
    (fun o ->
      check_true "all converge" o.Best_response.converged;
      check_close ~tol:1e-7 "all reach the same point" star o.Best_response.profile.(0))
    outs

let test_corner_game_solution () =
  let game, star = Game_fixtures.corner_game () in
  let out = Best_response.solve game ~x0:(Vec.zeros 2) in
  check_close ~tol:1e-9 "corner x0" star out.Best_response.profile.(0);
  check_close ~tol:1e-9 "corner x1" star out.Best_response.profile.(1)

let test_trace_records_moves () =
  let game, star = Game_fixtures.cournot () in
  let out = Best_response.solve game ~x0:(Vec.zeros 2) in
  check_true "converged" out.Best_response.converged;
  Alcotest.(check int) "one move per sweep" out.Best_response.sweeps
    (List.length out.Best_response.moves);
  (match List.rev out.Best_response.moves with
  | last :: _ -> check_true "last move within tol" (last <= 1e-10)
  | [] -> Alcotest.fail "empty trace");
  check_close ~tol:1e-8 "final at Nash" star out.Best_response.profile.(0)

let test_moves_shrink () =
  let game, _ = Game_fixtures.cournot () in
  let out = Best_response.solve game ~x0:(Vec.zeros 2) in
  (* Gauss-Seidel on Cournot contracts: later moves smaller than the first *)
  match out.Best_response.moves with
  | first :: rest ->
    List.iter (fun m -> check_true "moves shrink" (m <= first +. 1e-12)) rest
  | [] -> Alcotest.fail "no moves"

let test_contraction_estimate () =
  let game, _ = Game_fixtures.cournot () in
  let out = Best_response.solve ~tol:1e-12 game ~x0:(Vec.ones 2) in
  match Best_response.contraction_estimate out with
  | Some rate -> check_in_range "contraction factor" ~lo:0. ~hi:0.99 rate
  | None -> Alcotest.fail "expected a contraction estimate"

let test_damped_matches_undamped_limit () =
  let game, star = Game_fixtures.cournot () in
  let damped = Best_response.solve ~damping:0.5 game ~x0:(Vec.zeros 2) in
  check_true "damped converges" damped.Best_response.converged;
  check_close ~tol:1e-7 "same limit" star damped.Best_response.profile.(0)

let prop_cournot_family =
  prop "iterated best response solves Cournot for random costs" ~count:50
    (float_range 0. 0.9)
    (fun c ->
      let game, star = Game_fixtures.cournot ~c () in
      let out = Best_response.solve game ~x0:(Vec.make 2 0.8) in
      out.Best_response.converged
      && Float.abs (out.Best_response.profile.(0) -. star) < 1e-7)

let prop_nash_is_vi_solution =
  prop "best-response fixed point solves the VI" ~count:50 (float_range 0. 0.9)
    (fun c ->
      let game, _ = Game_fixtures.cournot ~c () in
      let out = Best_response.solve game ~x0:(Vec.zeros 2) in
      Vi.residual
        (Game_fixtures.cournot_vi_map ~c ())
        (Box.uniform ~dim:2 ~lo:0. ~hi:1.)
        out.Best_response.profile
      <= 1e-7)

let suite =
  ( "best-response",
    [
      quick "respond interior" test_respond_interior;
      quick "respond corner" test_respond_corner;
      quick "gauss-seidel" test_solve_gauss_seidel;
      quick "jacobi" test_solve_jacobi;
      quick "derivative-free" test_derivative_free_agrees;
      quick "validation" test_damping_validation;
      quick "unconverged flagged" test_unconverged_flagged;
      quick "multistart" test_multistart;
      quick "corner game" test_corner_game_solution;
      quick "trace records" test_trace_records_moves;
      quick "moves shrink" test_moves_shrink;
      quick "contraction estimate" test_contraction_estimate;
      quick "damped limit" test_damped_matches_undamped_limit;
      prop_cournot_family;
      prop_nash_is_vi_solution;
    ] )
