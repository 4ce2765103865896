(* Shared market fixtures for the core test suites. *)

open Subsidization

let two_cp_system () =
  let a = Econ.Cp.exponential ~name:"a" ~alpha:2. ~beta:3. ~value:0.5 () in
  let b = Econ.Cp.exponential ~name:"b" ~alpha:4. ~beta:1.5 ~value:1.2 () in
  System.make ~cps:[| a; b |] ~capacity:1. ()

let paper3 () = Scenario.fig45_system ()

let paper5 () = Scenario.fig7_11_system ()

let uniform_charges sys t = Numerics.Vec.make (System.n_cps sys) t

(* A random exponential-CP system via the library's own generator. *)
let random_system seed =
  Scenario.random_system (Numerics.Rng.create (Int64.of_int seed))

(* A market whose CPs each draw a demand family, a throughput family
   and their parameters from their own Numerics.Rng.split_n stream; the
   utilization family and the capacity come from the parent stream. *)
let family_market seed =
  let rng = Numerics.Rng.create (Int64.of_int seed) in
  let n = 2 + Numerics.Rng.int rng 5 in
  let cp r =
    let demand =
      match Numerics.Rng.int r 3 with
      | 0 -> Econ.Demand.exponential ~alpha:(Numerics.Rng.uniform r ~lo:1. ~hi:5.) ()
      | 1 -> Econ.Demand.isoelastic ~alpha:(Numerics.Rng.uniform r ~lo:1. ~hi:3.) ()
      | _ ->
        Econ.Demand.logit
          ~midpoint:(Numerics.Rng.uniform r ~lo:0.2 ~hi:1.)
          ~slope:(Numerics.Rng.uniform r ~lo:1. ~hi:5.) ()
    in
    let throughput =
      match Numerics.Rng.int r 3 with
      | 0 -> Econ.Throughput.exponential ~beta:(Numerics.Rng.uniform r ~lo:0.5 ~hi:4.) ()
      | 1 -> Econ.Throughput.isoelastic ~beta:(Numerics.Rng.uniform r ~lo:0.5 ~hi:3.) ()
      | _ -> Econ.Throughput.rational ~beta:(Numerics.Rng.uniform r ~lo:0.5 ~hi:4.) ()
    in
    Econ.Cp.make ~demand ~throughput ~value:(Numerics.Rng.uniform r ~lo:0.2 ~hi:1.5) ()
  in
  let cps = Array.map cp (Numerics.Rng.split_n rng n) in
  let utilization =
    [| Econ.Utilization.linear; Econ.Utilization.power 1.7; Econ.Utilization.log_family |]
    .(Numerics.Rng.int rng 3)
  in
  System.make ~utilization ~cps ~capacity:(Numerics.Rng.uniform rng ~lo:0.5 ~hi:3.) ()

let qcheck_seed = QCheck2.Gen.int_range 0 10_000

(* The marginal-utility Jacobian one dual column at a time: all n
   analytic marginals evaluated in dual arithmetic seeded on s_j (one
   first-order pass over the solved state per column, n passes of O(n)
   in all), with phi differentiated by the implicit-function correction
   step System.phi_d. The oracle the rank-two
   Subsidy_game.marginal_jacobian_exact is checked against, over the
   caller's solved state when [state] is given; every column's dual
   primals are the marginal utilities. *)
let jacobian_columns ?state g ~subsidies =
  let module Dual = Numerics.Dual in
  let st = Subsidy_game.resolve_state ?state g ~subsidies in
  let sys = Subsidy_game.system g in
  let n = Subsidy_game.dim g in
  let column j =
    let t_j = Dual.make ~v:st.System.charges.(j) ~d:(-1.) in
    let pops =
      Array.init n (fun k ->
          if k = j then Econ.Cp.population_d sys.System.cps.(k) t_j
          else Dual.const st.System.populations.(k))
    in
    let phi =
      System.phi_d sys ~populations:pops ~phi:st.System.phi
        ~gap_slope:st.System.gap_slope
    in
    let slope = System.gap_slope_d sys pops phi in
    Array.init n (fun k ->
        let cpk = sys.System.cps.(k) in
        let t_k = if k = j then t_j else Dual.const st.System.charges.(k) in
        let s_k = if k = j then Dual.var subsidies.(j) else Dual.const subsidies.(k) in
        let m_k = pops.(k) in
        let rate_k = Econ.Cp.rate_d cpk phi in
        let pop_slope_k = Econ.Demand.slope_d cpk.Econ.Cp.demand t_k in
        let rate_slope_k = Econ.Throughput.slope_d cpk.Econ.Cp.throughput phi in
        let dphi_dsub_k = Dual.(neg pop_slope_k * rate_k / slope) in
        let margin = Dual.(const cpk.Econ.Cp.value - s_k) in
        let direct = Dual.neg Dual.(m_k * rate_k) in
        let demand_gain = Dual.(neg pop_slope_k * rate_k) in
        let congestion_loss = Dual.(m_k * rate_slope_k * dphi_dsub_k) in
        Dual.(direct + (margin * (demand_gain + congestion_loss))))
  in
  Array.init n column

let jacobian_by_columns ?state g ~subsidies =
  let cols = jacobian_columns ?state g ~subsidies in
  let n = Array.length cols in
  Numerics.Mat.init ~rows:n ~cols:n (fun k j -> Numerics.Dual.d cols.(j).(k))
