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
