open Subsidization
open Test_helpers

(* Continuation-vs-cold-start equivalence: the warm-started fused
   solver must reproduce the tables of the cold-start pipeline it
   replaced (constant warm starts, grid-scan best responses, stenciled
   Jacobians). The two take genuinely different numerical paths (exact
   Newton from a predicted guess vs bracketed scan from scratch), so
   cells are certified equal within [cell_tol] rather than
   byte-identical; `--jobs 1` vs `--jobs 4` byte-identity is covered by
   test/parallel on the full experiments.

   The certification runs the SAME code paths as the experiments
   ([Capacity.investment_incentive] and the two [Duopoly] market
   solvers, which produce the capacity/duopoly CSV rows) on the paper's
   3-CP Figure-4/5 population instead of the 8-CP one. *)

let cell_tol = 5e-3

let close ~label a b =
  check_true
    (Printf.sprintf "%s: %.6g vs %.6g" label a b)
    (Float.abs (a -. b) <= cell_tol)

(* Runs [f] on a pool of [jobs] domains, restoring the caller's job
   count even when [f] raises. *)
let with_jobs jobs f =
  let prev = Parallel.Runtime.jobs () in
  Parallel.Runtime.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Parallel.Runtime.set_jobs prev) f

let check_cells ~label reference rows =
  List.iter2
    (fun expected row ->
      List.iteri (fun k (name, v) -> close ~label:(label ^ " " ^ name) expected.(k) v) row)
    reference rows

(* The reference cells below are the output of these same runs under the
   cold-start pipeline, printed at %.17g on the last commit that still
   had it (the commit before the process-global Fast/Legacy switch was
   deleted). *)

let legacy_plans =
  [
    [| 1.3510813302835918; 1.4561370187202878; 0.52843261581176415;
       0.32577041626922543; 0.26859992033978691; 0.36290033768674607 |];
    [| 4.4661067485240453; 0.573442977077951; 1.3690273485938067;
       0.69911133631519995; 0.53455548028945887; 2.3873818379812644 |];
  ]

let capacity_rows ~jobs =
  with_jobs jobs (fun () ->
      let sys = Scenario.fig45_system () in
      Capacity.investment_incentive ~pool:(Parallel.Runtime.pool ()) sys
        ~pricing:(Capacity.Optimal_price { p_max = 2.5 }) ~unit_cost:0.15
        ~caps:[| 0.; 0.6 |]
      |> Array.to_list
      |> List.map (fun (a : Capacity.plan) ->
             [
               ("mu*", a.Capacity.capacity);
               ("p*", a.Capacity.price);
               ("revenue", a.Capacity.revenue);
               ("profit", a.Capacity.profit);
               ("phi", a.Capacity.utilization);
               ("welfare", a.Capacity.welfare);
             ]))

let test_capacity_equivalence () =
  check_cells ~label:"capacity jobs=1 vs legacy" legacy_plans (capacity_rows ~jobs:1);
  check_cells ~label:"capacity jobs=4 vs legacy" legacy_plans (capacity_rows ~jobs:4)

(* monopoly benchmark, then the price equilibrium *)
let legacy_markets =
  [
    [| 0.71532818962872391; 0.71532818962872391; 0.36663431518337458;
       0.36663431518337458; 1.0250800136191149 |];
    [| 0.81198716311338848; 0.58248048889154036; 0.39588429983820389;
       0.41219144284555825; 1.1951984464446042 |];
  ]

let duopoly_markets ~jobs =
  with_jobs jobs (fun () ->
      let duopoly cap =
        Duopoly.make ~cps:(Scenario.fig45_cps ()) ~capacity_a:0.5
          ~capacity_b:0.5 ~cap ()
      in
      [
        Duopoly.monopoly_benchmark (duopoly 1.);
        Duopoly.price_equilibrium (duopoly 1.);
      ]
      |> List.map (fun (a : Duopoly.market) ->
             [
               ("pA", fst a.Duopoly.prices);
               ("pB", snd a.Duopoly.prices);
               ("RA", fst a.Duopoly.revenues);
               ("RB", snd a.Duopoly.revenues);
               ("welfare", a.Duopoly.welfare);
             ]))

let test_duopoly_equivalence () =
  check_cells ~label:"duopoly jobs=1 vs legacy" legacy_markets (duopoly_markets ~jobs:1);
  check_cells ~label:"duopoly jobs=4 vs legacy" legacy_markets (duopoly_markets ~jobs:4)

let test_shared_stats_attribution () =
  (* fig8-11 read one memoized sweep: after any consumer runs, the
     captured shared stats must show the sweep's real solver work, so
     the bench gate has non-zero counters to watch *)
  ignore (Experiments.Common.run (Experiments.Registry.find_exn "fig8"));
  match Experiments.Eq_sweep.shared_stats () with
  | None -> Alcotest.fail "sweep ran but no shared stats captured"
  | Some s ->
    check_true "root calls attributed" (s.Experiments.Eq_sweep.root_calls > 0);
    check_true "objective evaluations attributed"
      (s.Experiments.Eq_sweep.objective_evaluations > 0.);
    check_true "AD passes attributed" (s.Experiments.Eq_sweep.deriv_ad > 0.)

let suite =
  ( "continuation-equivalence",
    [
      quick "capacity plans across modes" test_capacity_equivalence;
      quick "duopoly markets across modes" test_duopoly_equivalence;
      quick "eq_sweep shared-stats attribution" test_shared_stats_attribution;
    ] )
