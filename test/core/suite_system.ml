open Numerics
open Subsidization
open Test_helpers

let test_make_validation () =
  check_raises_invalid "no CPs" (fun () ->
      System.make ~cps:[||] ~capacity:1. () |> ignore);
  check_raises_invalid "bad capacity" (fun () ->
      System.make ~cps:(Scenario.fig45_cps ()) ~capacity:0. () |> ignore)

let test_definition1_fixed_point () =
  (* the solved phi satisfies phi = Phi(sum m_k lambda_k(phi), mu) exactly *)
  let sys = Fixtures.two_cp_system () in
  let charges = Fixtures.uniform_charges sys 0.5 in
  let st = System.solve sys ~charges in
  let implied =
    Econ.Utilization.phi sys.System.utilization ~theta:st.System.aggregate
      ~mu:sys.System.capacity
  in
  check_close ~tol:1e-10 "Definition 1 fixed point" st.System.phi implied;
  check_close ~tol:1e-10 "gap vanishes" 0. (System.gap sys ~charges st.System.phi)

let test_state_consistency () =
  let sys = Fixtures.two_cp_system () in
  let charges = Vec.of_list [ 0.2; 0.9 ] in
  let st = System.solve sys ~charges in
  Array.iteri
    (fun i cp ->
      check_close ~tol:1e-12 "population matches demand"
        (Econ.Cp.population cp charges.(i))
        st.System.populations.(i);
      check_close ~tol:1e-12 "rate matches throughput fn"
        (Econ.Cp.rate cp st.System.phi)
        st.System.rates.(i);
      check_close ~tol:1e-12 "theta_i = m_i lambda_i"
        (st.System.populations.(i) *. st.System.rates.(i))
        st.System.throughputs.(i))
    sys.System.cps;
  check_close ~tol:1e-12 "aggregate sums" (Vec.sum st.System.throughputs)
    st.System.aggregate;
  check_true "gap slope positive (Lemma 1)" (st.System.gap_slope > 0.)

let test_warm_start_irrelevant () =
  let sys = Fixtures.paper3 () in
  let charges = Fixtures.uniform_charges sys 0.3 in
  let a = System.equilibrium_phi ~phi_guess:1e-4 sys ~charges in
  let b = System.equilibrium_phi ~phi_guess:30. sys ~charges in
  check_close ~tol:1e-10 "guess-independent" a b

let test_charge_dimension_check () =
  let sys = Fixtures.two_cp_system () in
  check_raises_invalid "wrong charge count" (fun () ->
      System.solve sys ~charges:(Vec.zeros 3) |> ignore)

let test_fixed_populations () =
  let sys = Fixtures.two_cp_system () in
  let st = System.solve_fixed_populations sys ~populations:(Vec.of_list [ 0.5; 0.5 ]) in
  check_true "charges are NaN" (Float.is_nan st.System.charges.(0));
  check_close ~tol:1e-10 "fixed-pop fixed point"
    (Econ.Utilization.phi sys.System.utilization ~theta:st.System.aggregate ~mu:1.)
    st.System.phi;
  check_raises_invalid "negative population" (fun () ->
      System.solve_fixed_populations sys ~populations:(Vec.of_list [ -1.; 0.5 ])
      |> ignore)

let test_theorem1_signs () =
  let sys = Fixtures.paper3 () in
  let st = System.solve sys ~charges:(Fixtures.uniform_charges sys 0.4) in
  check_true "dphi/dmu < 0" (System.dphi_dcapacity sys st < 0.);
  for i = 0 to System.n_cps sys - 1 do
    check_true "dphi/dm_i > 0" (System.dphi_dpopulation sys st i > 0.);
    check_true "dtheta_i/dmu > 0" (System.dthroughput_dcapacity sys st i > 0.);
    check_true "own effect > 0"
      (System.dthroughput_dpopulation sys st ~cp:i ~wrt:i > 0.)
  done;
  check_true "cross effect < 0" (System.dthroughput_dpopulation sys st ~cp:0 ~wrt:1 < 0.)

let test_capacity_monotone () =
  let sys = Fixtures.two_cp_system () in
  let charges = Fixtures.uniform_charges sys 0.5 in
  let phi_small = (System.solve sys ~charges).System.phi in
  let big = System.with_capacity sys 2. in
  let phi_big = (System.solve big ~charges).System.phi in
  check_true "more capacity, less utilization" (phi_big < phi_small);
  let th_small = (System.solve sys ~charges).System.throughputs.(0) in
  let th_big = (System.solve big ~charges).System.throughputs.(0) in
  check_true "more capacity, more throughput" (th_big > th_small)

let test_alternative_utilization_families () =
  List.iter
    (fun util ->
      let sys =
        System.make ~utilization:util ~cps:(Scenario.fig45_cps ()) ~capacity:1.3 ()
      in
      let charges = Fixtures.uniform_charges sys 0.4 in
      let st = System.solve sys ~charges in
      check_true "phi positive" (st.System.phi > 0.);
      check_close ~tol:1e-9 "fixed point under family" 0.
        (System.gap sys ~charges st.System.phi))
    [ Econ.Utilization.power 0.8; Econ.Utilization.power 1.6; Econ.Utilization.log_family ]

let prop_equilibrium_unique_and_well_posed =
  prop "random systems have a well-posed equilibrium" ~count:60 Fixtures.qcheck_seed
    (fun seed ->
      let sys = Fixtures.random_system seed in
      let charges = Fixtures.uniform_charges sys 0.5 in
      let st = System.solve sys ~charges in
      st.System.phi >= 0. && st.System.gap_slope > 0.
      && Float.abs (System.gap sys ~charges st.System.phi) < 1e-8)

let prop_lemma2_scale_invariance =
  prop "Lemma 2: rescaling any CP leaves phi unchanged" ~count:60
    QCheck2.Gen.(pair Fixtures.qcheck_seed (float_range 0.2 5.))
    (fun (seed, kappa) ->
      let sys = Fixtures.random_system seed in
      let charges = Fixtures.uniform_charges sys 0.4 in
      let phi0 = System.equilibrium_phi sys ~charges in
      let cps = Array.copy sys.System.cps in
      cps.(0) <- Econ.Cp.scale cps.(0) ~kappa;
      let scaled =
        System.make ~utilization:sys.System.utilization ~cps
          ~capacity:sys.System.capacity ()
      in
      Float.abs (System.equilibrium_phi scaled ~charges -. phi0) < 1e-9)

let prop_theorem1_analytic_matches_fd =
  prop "Theorem 1 derivatives match finite differences on random systems" ~count:30
    Fixtures.qcheck_seed
    (fun seed ->
      let sys = Fixtures.random_system seed in
      let charges = Fixtures.uniform_charges sys 0.5 in
      let st = System.solve sys ~charges in
      let h = 1e-6 *. sys.System.capacity in
      let phi_at mu = System.equilibrium_phi (System.with_capacity sys mu) ~charges in
      let numeric =
        (phi_at (sys.System.capacity +. h) -. phi_at (sys.System.capacity -. h))
        /. (2. *. h)
      in
      let analytic = System.dphi_dcapacity sys st in
      Float.abs (analytic -. numeric) <= 1e-4 *. (1. +. Float.abs analytic))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* a family market whose CPs are also rescaled (Lemma 2), so the rate
   scales l0 differ from 1 *)
let rescaled_family_market seed =
  let sys = Fixtures.family_market seed in
  let rng = Rng.create (Int64.of_int (seed + 1)) in
  let cps =
    Array.map
      (fun cp -> Econ.Cp.scale cp ~kappa:(Rng.uniform rng ~lo:0.2 ~hi:5.))
      sys.System.cps
  in
  System.make ~utilization:sys.System.utilization ~cps ~capacity:sys.System.capacity ()

let prop_fused_kernel_bit_identical =
  prop "fused rate+slope kernel is bit-identical to rate and derivative" ~count:200
    QCheck2.Gen.(pair Fixtures.qcheck_seed (float_range 0. 6.))
    (fun (seed, phi) ->
      let sys = rescaled_family_market seed in
      let n = System.n_cps sys in
      let rates = Array.make n Float.nan and slopes = Array.make n Float.nan in
      let ok = ref true in
      List.iter
        (fun phi ->
          Array.iteri
            (fun i cp ->
              let th = cp.Econ.Cp.throughput in
              Econ.Throughput.rate_slope_into th phi ~rates ~slopes i;
              ok :=
                !ok
                && same_bits rates.(i) (Econ.Throughput.rate th phi)
                && same_bits slopes.(i) (Econ.Throughput.derivative th phi))
            sys.System.cps)
        [ 0.; phi ];
      !ok)

(* the state read from the root finder's last pass against everything
   recomputed at the returned phi, in the kernels' own order *)
let state_recomputed sys (st : System.state) =
  let phi = st.System.phi in
  let demand_slope = ref 0. and aggregate = ref 0. in
  let rates_ok = ref true in
  Array.iteri
    (fun i cp ->
      let m = st.System.populations.(i) in
      let rate = Econ.Cp.rate cp phi in
      rates_ok :=
        !rates_ok
        && same_bits st.System.rates.(i) rate
        && same_bits st.System.throughputs.(i) (m *. rate);
      aggregate := !aggregate +. (m *. rate);
      demand_slope :=
        !demand_slope +. (m *. Econ.Throughput.derivative cp.Econ.Cp.throughput phi))
    sys.System.cps;
  let gap_slope =
    Econ.Utilization.dtheta_dphi sys.System.utilization ~phi ~mu:sys.System.capacity
    -. !demand_slope
  in
  !rates_ok
  && same_bits st.System.gap_slope gap_slope
  && same_bits st.System.aggregate !aggregate

let prop_solved_state_bit_identical =
  prop "solved state is bit-identical to a recomputation at its phi" ~count:200
    QCheck2.Gen.(triple Fixtures.qcheck_seed (float_range 0. 1.5) (float_range 1e-3 20.))
    (fun (seed, price, guess) ->
      let sys = rescaled_family_market seed in
      let n = System.n_cps sys in
      Array.for_all2 same_bits sys.System.rates_at_zero
        (Array.map (fun cp -> Econ.Cp.rate cp 0.) sys.System.cps)
      && state_recomputed sys
           (System.solve ~phi_guess:guess sys ~charges:(Vec.make n price))
      (* no demand at all: the market clears at phi = 0 with no root call *)
      && state_recomputed sys (System.solve_fixed_populations sys ~populations:(Vec.zeros n)))

let test_zero_demand_clears_without_root_call () =
  let sys = Fixtures.paper5 () in
  Robust.reset_stats ();
  let st = System.solve_fixed_populations sys ~populations:(Vec.zeros (System.n_cps sys)) in
  Alcotest.(check (float 0.)) "phi" 0. st.System.phi;
  Alcotest.(check int) "no root call" 0 (Robust.stats ()).Robust.root_calls;
  ignore (System.solve sys ~charges:(Fixtures.uniform_charges sys 0.5));
  Alcotest.(check int) "one root call per solve" 1 (Robust.stats ()).Robust.root_calls

let suite =
  ( "system",
    [
      quick "validation" test_make_validation;
      quick "definition 1 fixed point" test_definition1_fixed_point;
      quick "state consistency" test_state_consistency;
      quick "warm start irrelevant" test_warm_start_irrelevant;
      quick "dimension checks" test_charge_dimension_check;
      quick "fixed populations" test_fixed_populations;
      quick "theorem 1 signs" test_theorem1_signs;
      quick "capacity monotone" test_capacity_monotone;
      quick "other utilization families" test_alternative_utilization_families;
      prop_equilibrium_unique_and_well_posed;
      prop_lemma2_scale_invariance;
      prop_theorem1_analytic_matches_fd;
      prop_fused_kernel_bit_identical;
      prop_solved_state_bit_identical;
      quick "zero demand clears without a root call"
        test_zero_demand_clears_without_root_call;
    ] )
