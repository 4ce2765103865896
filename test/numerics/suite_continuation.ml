open Numerics
open Test_helpers

(* root_fused targets the DECREASING crossing of a marginal-payoff
   objective: u > 0 means "more is better", u < 0 "less is better". *)

let quadratic_marginal m x = (-2. *. (x -. m), -2.)

let test_fused_interior () =
  match Robust.root_fused (quadratic_marginal 1.3) ~x0:0.1 ~lo:0. ~hi:4. with
  | Ok p ->
    check_close ~tol:1e-9 "payoff peak" 1.3 p.Robust.x;
    check_true "interior" (p.Robust.bound = Robust.Interior)
  | Error _ -> Alcotest.fail "quadratic peak must converge"

let test_fused_corners () =
  (* peak left of the box: marginal negative everywhere -> Lower *)
  (match Robust.root_fused (quadratic_marginal (-1.)) ~x0:2. ~lo:0. ~hi:4. with
  | Ok p ->
    check_close ~tol:0. "clamped at lo" 0. p.Robust.x;
    check_true "lower corner" (p.Robust.bound = Robust.Lower)
  | Error _ -> Alcotest.fail "lower corner must be detected");
  (* peak right of the box: marginal positive everywhere -> Upper *)
  match Robust.root_fused (quadratic_marginal 9.) ~x0:2. ~lo:0. ~hi:4. with
  | Ok p ->
    check_close ~tol:0. "clamped at hi" 4. p.Robust.x;
    check_true "upper corner" (p.Robust.bound = Robust.Upper)
  | Error _ -> Alcotest.fail "upper corner must be detected"

let test_fused_skips_increasing_crossing () =
  (* u = -(x-1)(x-3): roots at 1 (payoff minimum, u increasing) and 3
     (payoff maximum, u decreasing). Started between them the solver
     must land on the maximum, never the minimum. *)
  let f x = (-.(x -. 1.) *. (x -. 3.), -2. *. (x -. 2.)) in
  match Robust.root_fused f ~x0:1.6 ~lo:0. ~hi:4. with
  | Ok p -> check_close ~tol:1e-9 "decreasing crossing" 3. p.Robust.x
  | Error _ -> Alcotest.fail "must converge to the payoff maximum"

let test_fused_nonconcave_start () =
  (* started where the objective is locally convex (du > 0) the solver
     must leap uphill instead of stepping toward the minimum *)
  let f x = (-.(x -. 1.) *. (x -. 3.), -2. *. (x -. 2.)) in
  match Robust.root_fused f ~x0:1.05 ~lo:0.5 ~hi:4. with
  | Ok p -> check_close ~tol:1e-9 "escapes the minimum" 3. p.Robust.x
  | Error _ -> Alcotest.fail "must escape the convex region"

let test_correct_converged_and_fallback () =
  Continuation.reset_stats ();
  (match Continuation.correct (quadratic_marginal 2.) ~x0:0.5 ~lo:0. ~hi:4. with
  | Continuation.Converged p -> check_close ~tol:1e-9 "converged" 2. p.Robust.x
  | _ -> Alcotest.fail "expected Converged");
  (* max_iter 0 forces the fused Newton to give up; the derivative-free
     chain must still find the sign change *)
  (match
     Continuation.correct ~max_iter:0 (fun x -> (1. -. x, -1.)) ~x0:0.2 ~lo:0.
       ~hi:4.
   with
  | Continuation.Fell_back s ->
    check_close ~tol:1e-7 "fallback root" 1. s.Robust.result.Rootfind.root
  | Continuation.Converged _ -> Alcotest.fail "max_iter 0 cannot converge"
  | Continuation.Failed _ -> Alcotest.fail "fallback chain must succeed");
  let s = Continuation.stats () in
  check_true "scalar iterations recorded" (s.Continuation.scalar_iterations > 0.);
  check_close ~tol:0. "no whole-cell corrector step" 0. s.Continuation.corrector_iterations;
  check_close ~tol:0. "one fallback recorded" 1. s.Continuation.fallbacks

let test_predict_secant () =
  let t = Continuation.track () in
  check_true "empty track predicts nothing"
    (Continuation.predict t ~at:1. = None);
  (* x(at) = [2 at; 5 - at] is linear, so the secant is exact *)
  Continuation.note t ~at:1. (Vec.of_list [ 2.; 4. ]);
  Continuation.note t ~at:2. (Vec.of_list [ 4.; 3. ]);
  (match Continuation.predict t ~at:3. with
  | Some g ->
    check_close ~tol:1e-12 "secant x0" 6. g.(0);
    check_close ~tol:1e-12 "secant x1" 2. g.(1)
  | None -> Alcotest.fail "two points must predict");
  Continuation.clear t;
  check_true "cleared track predicts nothing" (Continuation.predict t ~at:3. = None)

let test_predict_single_point_copies () =
  let t = Continuation.track () in
  Continuation.note t ~at:1. (Vec.of_list [ 2.; 4. ]);
  match Continuation.predict t ~at:5. with
  | Some g ->
    check_close ~tol:0. "copy x0" 2. g.(0);
    check_close ~tol:0. "copy x1" 4. g.(1);
    (* the guess must be a copy, not an alias of the noted point *)
    g.(0) <- 99.;
    (match Continuation.predict t ~at:5. with
    | Some g' -> check_close ~tol:0. "note kept its own copy" 2. g'.(0)
    | None -> Alcotest.fail "predict vanished")
  | None -> Alcotest.fail "one point must still predict"

let test_solve_cell_warm_and_fallback () =
  Continuation.reset_stats ();
  let t = Continuation.track () in
  let cold = ref 0 and warm = ref 0 in
  (* the "solver": the true solution is x(at) = [at]; a guess within
     0.5 counts as warm-accepted, anything else as a cold solve *)
  let solve_at at guess =
    match guess with
    | Some (g : Vec.t) when Float.abs (g.(0) -. at) <= 0.5 ->
      incr warm;
      (Vec.of_list [ at ], true)
    | _ ->
      incr cold;
      (Vec.of_list [ at ], true)
  in
  let cell at =
    Continuation.solve_cell t ~at ~solve:(solve_at at) ~extract:Fun.id ()
  in
  ignore (cell 1.0);
  (* no history: cold *)
  ignore (cell 1.2);
  (* single-point copy guess, off by 0.2: warm *)
  ignore (cell 1.4);
  (* secant guess is exact: warm *)
  Alcotest.(check int) "one cold solve" 1 !cold;
  Alcotest.(check int) "two warm solves" 2 !warm;
  let s = Continuation.stats () in
  check_close ~tol:0. "three cells stepped" 3. s.Continuation.steps;
  check_close ~tol:0. "two predictor accepts" 2. s.Continuation.predictor_accepts;
  (* a cell that refuses the guess AND the cold retry clears the track *)
  let rejected at guess =
    match guess with
    | Some _ -> (Vec.of_list [ at ], false)
    | None -> (Vec.of_list [ at ], false)
  in
  ignore (Continuation.solve_cell t ~at:1.6 ~solve:(rejected 1.6) ~extract:Fun.id ());
  check_true "unsettled cell clears the track"
    (Continuation.predict t ~at:1.8 = None);
  check_true "guess rejection counts as fallback"
    ((Continuation.stats ()).Continuation.fallbacks >= 1.)

let test_solve_cell_clamp () =
  let t = Continuation.track () in
  Continuation.note t ~at:1. (Vec.of_list [ 3. ]);
  Continuation.note t ~at:2. (Vec.of_list [ 6. ]);
  let seen = ref None in
  let solve g =
    seen := Option.map Vec.copy g;
    (Vec.of_list [ 0. ], true)
  in
  ignore
    (Continuation.solve_cell ~clamp:(Vec.clamp ~lo:0. ~hi:5.) t ~at:3. ~solve
       ~extract:Fun.id ());
  match !seen with
  | Some g -> check_close ~tol:0. "secant 9 clamped to box" 5. g.(0)
  | None -> Alcotest.fail "warm guess expected"

let suite =
  ( "continuation",
    [
      quick "fused newton: interior peak" test_fused_interior;
      quick "fused newton: KKT corners" test_fused_corners;
      quick "fused newton: skips increasing crossing" test_fused_skips_increasing_crossing;
      quick "fused newton: escapes convex region" test_fused_nonconcave_start;
      quick "correct: converged and fallback" test_correct_converged_and_fallback;
      quick "predict: secant is exact on linear tracks" test_predict_secant;
      quick "predict: single point copies" test_predict_single_point_copies;
      quick "solve_cell: warm starts and fallback" test_solve_cell_warm_and_fallback;
      quick "solve_cell: clamps the guess" test_solve_cell_clamp;
    ] )
