(* Resilience suite: proves every fallback link of Numerics.Robust fires
   under an injected fault, that the telemetry counters record it, and
   that a poisoned market degrades a Monte-Carlo sweep instead of
   killing it. *)

open Numerics
open Test_helpers

let cubic x = (x *. x *. x) -. (2. *. x) -. 5.
let cubic_root = 2.0945514815423265

(* ------------------------------------------------------------------ *)
(* root-finding fallback chain *)

let test_clean_newton () =
  Robust.reset_stats ();
  let df x = (3. *. x *. x) -. 2. in
  (match Robust.root cubic ~df ~x0:2. ~lo:0. ~hi:3. with
  | Error e -> Alcotest.failf "chain failed: %s" (Robust.error_message e)
  | Ok s ->
    check_close ~tol:1e-10 "root" cubic_root s.Robust.result.Rootfind.root;
    check_true "newton wins unfaulted" (s.Robust.method_used = Robust.Newton);
    Alcotest.(check int) "no fallbacks" 0 s.Robust.fallbacks);
  let st = Robust.stats () in
  Alcotest.(check int) "one root call" 1 st.Robust.root_calls;
  Alcotest.(check int) "one newton attempt" 1 st.Robust.newton_attempts;
  Alcotest.(check int) "no secant attempt" 0 st.Robust.secant_attempts;
  Alcotest.(check int) "no failures" 0 st.Robust.failures

let test_nan_recovered_by_bisection () =
  Robust.reset_stats ();
  (* the NaN pocket swallows Newton's start (0.71) and the first secant /
     Brent interpolation point (5/7 = 0.714...), but no bisection
     midpoint: only the last link of the chain survives *)
  let inj = Fault.inject (Fault.Nan_region { lo = 0.70; hi = 0.73 }) cubic in
  let df x = (3. *. x *. x) -. 2. in
  (match Robust.root inj.Fault.f ~df ~x0:0.71 ~lo:0. ~hi:3. with
  | Error e -> Alcotest.failf "chain failed: %s" (Robust.error_message e)
  | Ok s ->
    check_close ~tol:1e-9 "root" cubic_root s.Robust.result.Rootfind.root;
    check_true "bisection recovered" (s.Robust.method_used = Robust.Bisection);
    Alcotest.(check int) "three fallbacks" 3 s.Robust.fallbacks);
  let st = Robust.stats () in
  Alcotest.(check int) "newton attempted" 1 st.Robust.newton_attempts;
  Alcotest.(check int) "secant attempted" 1 st.Robust.secant_attempts;
  Alcotest.(check int) "brent attempted" 1 st.Robust.brent_attempts;
  Alcotest.(check int) "bisection attempted" 1 st.Robust.bisection_attempts;
  Alcotest.(check int) "nan detected by each poisoned link" 3 st.Robust.non_finite;
  Alcotest.(check int) "fallbacks counted" 3 st.Robust.fallbacks;
  Alcotest.(check int) "no unrecovered failure" 0 st.Robust.failures;
  check_true "fault actually fired" (inj.Fault.triggered () >= 3)

let test_spike_recovered_by_secant () =
  Robust.reset_stats ();
  (* a discontinuity spike at Newton's start catapults the iterate into
     flat far field where the derivative underflows; the secant on the
     interval ends never touches the spike *)
  let base x = exp x -. 20. in
  let inj = Fault.inject (Fault.Spike { at = 1.0; width = 0.05; height = 1e6 }) base in
  (match Robust.root inj.Fault.f ~df:exp ~x0:1.0 ~lo:0. ~hi:4. with
  | Error e -> Alcotest.failf "chain failed: %s" (Robust.error_message e)
  | Ok s ->
    check_close ~tol:1e-9 "root" (log 20.) s.Robust.result.Rootfind.root;
    check_true "secant recovered" (s.Robust.method_used = Robust.Secant);
    Alcotest.(check int) "one fallback" 1 s.Robust.fallbacks);
  let st = Robust.stats () in
  Alcotest.(check int) "newton attempted" 1 st.Robust.newton_attempts;
  Alcotest.(check int) "secant attempted" 1 st.Robust.secant_attempts;
  Alcotest.(check int) "brent never needed" 0 st.Robust.brent_attempts;
  check_true "spike fired exactly once (Newton's poisoned start)"
    (inj.Fault.triggered () = 1)

let test_plateau_recovered_by_brent () =
  Robust.reset_stats ();
  (* both interval ends sit on the plateau: the secant's first step is
     flat and dies; auto-bracketed Brent expands off the plateau, finds
     the sign change and converges *)
  let base x = x -. 2.5 in
  let inj = Fault.inject (Fault.Plateau { lo = 5.; hi = 11.; level = 3.7 }) base in
  (match Robust.root inj.Fault.f ~lo:6. ~hi:10. with
  | Error e -> Alcotest.failf "chain failed: %s" (Robust.error_message e)
  | Ok s ->
    check_close ~tol:1e-9 "root" 2.5 s.Robust.result.Rootfind.root;
    check_true "brent recovered" (s.Robust.method_used = Robust.Brent);
    Alcotest.(check int) "one fallback" 1 s.Robust.fallbacks);
  let st = Robust.stats () in
  Alcotest.(check int) "secant attempted" 1 st.Robust.secant_attempts;
  Alcotest.(check int) "brent attempted" 1 st.Robust.brent_attempts;
  Alcotest.(check int) "bisection never needed" 0 st.Robust.bisection_attempts;
  check_true "plateau fired" (inj.Fault.triggered () >= 2)

let test_budget_exhaustion_is_typed () =
  Robust.reset_stats ();
  let inj = Fault.inject (Fault.Budget 4) cubic in
  (match Robust.root inj.Fault.f ~lo:0. ~hi:3. with
  | Ok _ -> Alcotest.fail "expected a budget error"
  | Error e -> (
    match e.Robust.attempts with
    | [ { Robust.method_ = Robust.Secant; failure = Robust.Budget_exhausted _; _ } ] ->
      ()
    | _ -> Alcotest.failf "unexpected attempts: %s" (Robust.error_message e)));
  let st = Robust.stats () in
  Alcotest.(check int) "budget taxonomy" 1 st.Robust.budget_exhausted;
  Alcotest.(check int) "chain stops: no brent attempt" 0 st.Robust.brent_attempts;
  Alcotest.(check int) "counted as an unrecovered failure" 1 st.Robust.failures

(* ------------------------------------------------------------------ *)
(* typed solver errors out of the equilibrium stack *)

let poisoned_game () =
  let sys = Subsidization.Scenario.random_system (Rng.create 7L) in
  let bad = { sys with Subsidization.System.capacity = Float.nan } in
  Subsidization.Subsidy_game.make bad ~price:0.8 ~cap:0.5

let test_system_typed_error () =
  let sys = Subsidization.Scenario.random_system (Rng.create 7L) in
  let bad = { sys with Subsidization.System.capacity = Float.nan } in
  let charges = Vec.make (Subsidization.System.n_cps bad) 0.3 in
  (match Subsidization.System.solve_result bad ~charges with
  | Ok _ -> Alcotest.fail "expected a structured error"
  | Error e ->
    Alcotest.(check int) "all four chain links tried" 4
      (List.length e.Numerics.Robust.attempts));
  (* the exception-style API raises the typed error, not Invalid_argument *)
  match Subsidization.System.solve bad ~charges with
  | _ -> Alcotest.fail "expected Solver_error"
  | exception Numerics.Robust.Solver_error _ -> ()

let test_nash_propagates_typed_error () =
  let game = poisoned_game () in
  (match Subsidization.Nash.solve_result game with
  | Ok _ -> Alcotest.fail "expected a structured error"
  | Error e -> check_true "attempts recorded" (e.Numerics.Robust.attempts <> []));
  match Subsidization.Nash.solve game with
  | _ -> Alcotest.fail "expected Solver_error"
  | exception Numerics.Robust.Solver_error _ -> ()

(* ------------------------------------------------------------------ *)
(* a poisoned market degrades the sweep instead of killing it *)

let test_poisoned_sweep_degrades () =
  Robust.reset_stats ();
  let outcome, degraded = Experiments.Robustness_exp.run_samples ~samples:6 ~poison:[ 3 ] () in
  Alcotest.(check int) "exactly one degraded sample" 1 (List.length degraded);
  (match degraded with
  | [ d ] ->
    Alcotest.(check int) "the poisoned index" 3 d.Experiments.Common.sample;
    check_true "reason is populated" (String.length d.Experiments.Common.reason > 0)
  | _ -> Alcotest.fail "expected a single degraded record");
  check_true "degraded table reported"
    (List.mem_assoc "degraded" outcome.Experiments.Common.tables);
  List.iter
    (fun c ->
      check_true
        (Printf.sprintf "robustness check under poison: %s (%s)"
           c.Subsidization.Theorems.name c.Subsidization.Theorems.detail)
        c.Subsidization.Theorems.passed)
    outcome.Experiments.Common.shape_checks;
  check_true "failure counted in telemetry" ((Robust.stats ()).Robust.failures >= 1)

let test_clean_sweep_has_no_degraded_rows () =
  let outcome, degraded = Experiments.Robustness_exp.run_samples ~samples:4 () in
  Alcotest.(check int) "no degraded samples" 0 (List.length degraded);
  check_true "no degraded table"
    (not (List.mem_assoc "degraded" outcome.Experiments.Common.tables))

let suite =
  ( "robust",
    [
      quick "clean newton" test_clean_newton;
      quick "nan -> bisection" test_nan_recovered_by_bisection;
      quick "spike -> secant" test_spike_recovered_by_secant;
      quick "plateau -> brent" test_plateau_recovered_by_brent;
      quick "budget -> typed error" test_budget_exhaustion_is_typed;
      quick "system typed error" test_system_typed_error;
      quick "nash propagates typed error" test_nash_propagates_typed_error;
      quick "poisoned sweep degrades" test_poisoned_sweep_degrades;
      quick "clean sweep" test_clean_sweep_has_no_degraded_rows;
    ] )

let () = Alcotest.run "robust" [ suite ]
