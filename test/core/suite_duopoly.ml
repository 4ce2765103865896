open Numerics
open Subsidization
open Test_helpers

let duopoly ?(cap = 0.) ?(eta = 4.) () =
  Duopoly.make ~eta ~cps:(Scenario.fig7_11_cps ()) ~capacity_a:0.5 ~capacity_b:0.5 ~cap ()

let test_validation () =
  check_raises_invalid "no cps" (fun () ->
      Duopoly.make ~cps:[||] ~capacity_a:1. ~capacity_b:1. ~cap:0. () |> ignore);
  check_raises_invalid "bad capacity" (fun () ->
      Duopoly.make ~cps:(Scenario.fig7_11_cps ()) ~capacity_a:0. ~capacity_b:1. ~cap:0. ()
      |> ignore);
  check_raises_invalid "bad eta" (fun () ->
      Duopoly.make ~eta:0. ~cps:(Scenario.fig7_11_cps ()) ~capacity_a:1. ~capacity_b:1.
        ~cap:0. ()
      |> ignore)

let test_symmetric_split () =
  let d = duopoly () in
  let ma, mb = Duopoly.split_populations d ~prices:(0.8, 0.8) ~subsidies:(Vec.zeros 8) in
  check_true "equal prices, equal split" (Vec.approx_equal ~tol:1e-12 ma mb);
  (* and the halves reproduce the single-ISP populations *)
  let single = One_sided.state (Scenario.fig7_11_system ()) ~price:0.8 in
  check_true "halves sum to the single-ISP population"
    (Vec.approx_equal ~tol:1e-9 (Vec.add ma mb) single.System.populations)

let test_price_advantage_attracts_users () =
  let d = duopoly () in
  let ma, mb = Duopoly.split_populations d ~prices:(0.6, 1.0) ~subsidies:(Vec.zeros 8) in
  Array.iteri
    (fun i m_a -> check_true "cheaper ISP gets more users" (m_a > mb.(i)))
    ma

let test_symmetric_market_reproduces_single_isp () =
  (* two ISPs of capacity 1/2 at the same price = one ISP of capacity 1
     (Lemma-2-style decomposition: equal shares, equal utilization) *)
  let d = duopoly ~cap:1.0 () in
  let m = Duopoly.market_at d ~prices:(0.8, 0.8) in
  let single = Policy.nash_at (Scenario.fig7_11_system ()) ~price:0.8 ~cap:1.0 in
  check_close ~tol:1e-3 "phi A matches single-ISP phi"
    single.Nash.state.System.phi (fst m.Duopoly.utilizations);
  check_true "subsidies match the single-ISP game"
    (Vec.dist_inf m.Duopoly.subsidies single.Nash.subsidies < 5e-3);
  check_close ~tol:5e-3 "welfare matches"
    (Welfare.of_state (Scenario.fig7_11_system ()) single.Nash.state)
    m.Duopoly.welfare

let test_cap_zero_skips_cp_game () =
  let d = duopoly () in
  let m = Duopoly.market_at d ~prices:(0.7, 0.9) in
  Array.iter (fun s -> check_close "no subsidies" 0. s) m.Duopoly.subsidies

let test_revenues_definition () =
  let d = duopoly () in
  let m = Duopoly.market_at d ~prices:(0.7, 0.9) in
  let ma, mb = m.Duopoly.populations in
  check_true "population vectors exposed" (Vec.dim ma = 8 && Vec.dim mb = 8);
  check_true "revenues positive" (fst m.Duopoly.revenues > 0. && snd m.Duopoly.revenues > 0.)

let test_price_competition_beats_monopoly () =
  let d = duopoly () in
  let eq = Duopoly.price_equilibrium ~max_sweeps:15 d in
  let mono = Duopoly.monopoly_benchmark d in
  let avg (m : Duopoly.market) = 0.5 *. (fst m.Duopoly.prices +. snd m.Duopoly.prices) in
  check_true "competition cuts the price" (avg eq < avg mono);
  check_true "and raises welfare" (eq.Duopoly.welfare >= mono.Duopoly.welfare -. 1e-6)

let test_sharper_eta_stronger_competition () =
  let soft = Duopoly.price_equilibrium ~max_sweeps:15 (duopoly ~eta:1. ()) in
  let sharp = Duopoly.price_equilibrium ~max_sweeps:15 (duopoly ~eta:8. ()) in
  let avg (m : Duopoly.market) = 0.5 *. (fst m.Duopoly.prices +. snd m.Duopoly.prices) in
  check_true "more price-sensitive users, lower prices" (avg sharp < avg soft +. 1e-6)

(* every revenue evaluation of the price game is one market solve, and
   with cap > 0 each market solve runs the CP game's best response
   once more; the price game's own best response is the one left over *)
let test_price_equilibrium_evaluation_budget () =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  let m =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_enabled false)
      (fun () -> Duopoly.price_equilibrium (duopoly ~cap:1. ()))
  in
  let solves =
    List.length
      (List.filter (fun sp -> sp.Obs.Trace.name = "best_response.solve") (Obs.Trace.spans ()))
  in
  Obs.Trace.clear ();
  check_true "no span dropped" (Obs.Trace.dropped () = 0);
  let evaluations = solves - 2 (* the price game itself and the returned market *) in
  check_true
    (Printf.sprintf "%d revenue evaluations <= 500" evaluations)
    (evaluations <= 500);
  (* the duopoly table's q = 1 row *)
  let pa, pb = m.Duopoly.prices in
  check_close ~tol:5e-4 "pA" 0.858 pa;
  check_close ~tol:5e-4 "pB" 0.622 pb

let suite =
  ( "duopoly",
    [
      quick "validation" test_validation;
      quick "symmetric split" test_symmetric_split;
      quick "price advantage" test_price_advantage_attracts_users;
      quick "reproduces single ISP" test_symmetric_market_reproduces_single_isp;
      quick "cap zero" test_cap_zero_skips_cp_game;
      quick "revenue definition" test_revenues_definition;
      quick "competition vs monopoly" test_price_competition_beats_monopoly;
      quick "eta effect" test_sharper_eta_stronger_competition;
      quick "price game evaluation budget" test_price_equilibrium_evaluation_budget;
    ] )
