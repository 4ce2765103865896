open Test_helpers
module Dual = Numerics.Dual
module Diff = Numerics.Diff
module Rng = Numerics.Rng

(* Pin the dual-number evaluators of every functorized econ kernel
   against Richardson-extrapolated stencils of the float closures: the
   two must agree to 1e-6 relative error on random draws, or the exact
   Newton/Jacobian paths and the float closures the equilibrium solves
   evaluate describe different games. *)

let rel_close ~tol expected actual =
  Float.abs (actual -. expected) <= tol *. (1. +. Float.abs expected)

let check_pin name ~f ~f_d x =
  let stencil = Diff.richardson f x in
  let exact = Dual.d (f_d (Dual.var x)) in
  check_true
    (Printf.sprintf "%s at %.4f: AD %.10g vs FD %.10g" name x exact stencil)
    (rel_close ~tol:1e-6 stencil exact);
  (* primal values must be IDENTICAL: the kernels are the same code *)
  check_close ~tol:0.
    (Printf.sprintf "%s primal at %.4f" name x)
    (f x)
    (Dual.v (f_d (Dual.var x)))

(* one deterministic Rng child per (family, draw): the draws do not
   depend on how many families run or in which order *)
let draws ~lo ~hi rng n =
  Array.map (fun r -> Rng.uniform r ~lo ~hi) (Rng.split_n rng n)

let demand_families =
  [
    Econ.Demand.exponential ~m0:1.3 ~alpha:2.1 ();
    Econ.Demand.isoelastic ~m0:0.8 ~scale:0.7 ~alpha:1.6 ();
    Econ.Demand.logit ~m0:1.1 ~midpoint:0.4 ~slope:3. ();
  ]

let test_demand_families () =
  let rng = Rng.create 11L in
  List.iter
    (fun d ->
      let name = Econ.Demand.label d in
      (* subsidies push effective charges negative: test both signs *)
      Array.iter
        (fun t ->
          check_pin (name ^ " population")
            ~f:(Econ.Demand.population d)
            ~f_d:(Econ.Demand.population_d d) t;
          check_pin (name ^ " slope")
            ~f:(Econ.Demand.derivative d)
            ~f_d:(Econ.Demand.slope_d d) t;
          (* the analytic slope closure IS the population derivative *)
          check_true (name ^ " slope = d population")
            (rel_close ~tol:1e-12
               (Dual.d (Econ.Demand.population_d d (Dual.var t)))
               (Econ.Demand.derivative d t)))
        (draws ~lo:(-0.8) ~hi:2.5 (Rng.split rng) 8))
    demand_families

let throughput_families =
  [
    Econ.Throughput.exponential ~l0:1.2 ~beta:1.8 ();
    Econ.Throughput.isoelastic ~l0:0.9 ~beta:1.4 ();
    Econ.Throughput.rational ~l0:1.1 ~beta:2.2 ();
  ]

let test_throughput_families () =
  let rng = Rng.create 12L in
  List.iter
    (fun th ->
      let name = Econ.Throughput.label th in
      Array.iter
        (fun phi ->
          check_pin (name ^ " rate")
            ~f:(Econ.Throughput.rate th)
            ~f_d:(Econ.Throughput.rate_d th) phi;
          check_pin (name ^ " slope")
            ~f:(Econ.Throughput.derivative th)
            ~f_d:(Econ.Throughput.slope_d th) phi)
        (draws ~lo:0.05 ~hi:3. (Rng.split rng) 8))
    throughput_families

let utilization_families =
  [ Econ.Utilization.linear; Econ.Utilization.power 1.7; Econ.Utilization.log_family ]

let test_utilization_families () =
  let rng = Rng.create 13L in
  List.iter
    (fun u ->
      let name = Econ.Utilization.label u in
      let mu = 0.8 in
      Array.iter
        (fun phi ->
          check_pin (name ^ " theta_of")
            ~f:(fun phi -> Econ.Utilization.theta_of u ~phi ~mu)
            ~f_d:(fun phi -> Econ.Utilization.theta_of_d u ~phi ~mu)
            phi;
          (* the kernel's dtheta_dphi must equal the dual derivative *)
          check_true (name ^ " dtheta_dphi = d theta_of")
            (rel_close ~tol:1e-12
               (Dual.d (Econ.Utilization.theta_of_d u ~phi:(Dual.var phi) ~mu))
               (Econ.Utilization.dtheta_dphi u ~phi ~mu)))
        (draws ~lo:0.05 ~hi:2.5 (Rng.split rng) 8))
    utilization_families

let test_cp_and_aggregate () =
  let rng = Rng.create 14L in
  let cp = Econ.Cp.exponential ~m0:1.2 ~l0:0.9 ~alpha:2.5 ~beta:1.5 ~value:1. () in
  Array.iter
    (fun x ->
      check_pin "cp population" ~f:(Econ.Cp.population cp)
        ~f_d:(Econ.Cp.population_d cp) x;
      check_pin "cp rate" ~f:(Econ.Cp.rate cp) ~f_d:(Econ.Cp.rate_d cp) x)
    (draws ~lo:0.05 ~hi:2. (Rng.split rng) 6);
  let cps =
    [
      cp;
      Econ.Cp.exponential ~m0:0.7 ~l0:1.4 ~alpha:1.8 ~beta:2.1 ~value:0.5 ();
    ]
  in
  let pooled ~charge ~phi =
    List.fold_left
      (fun acc cp -> acc +. Econ.Cp.throughput_at cp ~charge ~phi)
      0. cps
  in
  Array.iter
    (fun x ->
      (* seed the charge, hold phi; then the reverse *)
      check_true "pooled d/dcharge"
        (rel_close ~tol:1e-6
           (Diff.richardson (fun c -> pooled ~charge:c ~phi:0.7) x)
           (Dual.d
              (Econ.Aggregate.pooled_throughput_d cps ~charge:(Dual.var x)
                 ~phi:(Dual.const 0.7))));
      check_true "pooled d/dphi"
        (rel_close ~tol:1e-6
           (Diff.richardson (fun phi -> pooled ~charge:0.3 ~phi) x)
           (Dual.d
              (Econ.Aggregate.pooled_throughput_d cps ~charge:(Dual.const 0.3)
                 ~phi:(Dual.var x)))))
    (draws ~lo:0.1 ~hi:1.8 (Rng.split rng) 6)

let test_order2_families () =
  let rng = Rng.create 15L in
  let cp = Econ.Cp.exponential ~m0:1.2 ~l0:0.9 ~alpha:2.5 ~beta:1.5 ~value:1. () in
  Array.iter
    (fun x ->
      let pop = Econ.Cp.population_d2 cp (Dual.Order2.var x) in
      check_true "population dd vs stencil"
        (rel_close ~tol:1e-4
           (Diff.second (Econ.Cp.population cp) x)
           (Dual.Order2.dd pop));
      let rate = Econ.Cp.rate_d2 cp (Dual.Order2.var x) in
      check_true "rate dd vs stencil"
        (rel_close ~tol:1e-4
           (Diff.second (Econ.Cp.rate cp) x)
           (Dual.Order2.dd rate)))
    (draws ~lo:0.1 ~hi:1.5 (Rng.split rng) 6)

let test_elasticity_exact () =
  let d = Econ.Demand.exponential ~m0:1. ~alpha:2.1 () in
  List.iter
    (fun t ->
      let m, dm = Numerics.Ad.value_and_derivative (Econ.Demand.population_d d) t in
      let exact = dm *. t /. m in
      let numeric = Diff.central (Econ.Demand.population d) t *. t /. m in
      check_true "exact vs numeric elasticity" (rel_close ~tol:1e-6 numeric exact);
      (* the exponential family's t-elasticity is -alpha t exactly *)
      check_close ~tol:1e-12 "closed form" (-2.1 *. t) exact;
      check_close ~tol:1e-12 "Demand.elasticity" exact (Econ.Demand.elasticity d t))
    [ 0.2; 0.9; 1.7 ]

let suite =
  ( "ad-pins",
    [
      quick "demand kernels: dual vs richardson" test_demand_families;
      quick "throughput kernels: dual vs richardson" test_throughput_families;
      quick "utilization kernels: dual vs richardson" test_utilization_families;
      quick "cp and pooled aggregate" test_cp_and_aggregate;
      quick "second-order kernels vs stencils" test_order2_families;
      quick "elasticity: exact vs numeric" test_elasticity_exact;
    ] )
