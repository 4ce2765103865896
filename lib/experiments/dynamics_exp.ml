open Subsidization

let run () : Common.outcome =
  let sys = Scenario.fig7_11_system () in
  let game = Subsidy_game.make sys ~price:0.8 ~cap:1.0 in
  let report = Dynamics.compare game in
  let br = report.Dynamics.best_response in
  let flow = report.Dynamics.gradient in
  (* the tatonnement from zero is the static Nash solve, bit for bit
     (Dynamics.best_response_trace): its profile is the static
     equilibrium *)
  let static = br.Gametheory.Best_response.profile in

  (* trace table: per-sweep displacement of the discrete process *)
  let trace_table = Report.Table.make ~columns:[ "sweep"; "sup-norm move" ] in
  List.iteri
    (fun k move ->
      Report.Table.add_row trace_table
        [ string_of_int (k + 1); Printf.sprintf "%.3e" move ])
    br.Gametheory.Best_response.moves;

  let summary = Report.Table.make ~columns:[ "process"; "settles"; "distance to static Nash" ] in
  let br_final = br.Gametheory.Best_response.profile in
  Report.Table.add_row summary
    [
      "best-response tatonnement";
      string_of_bool br.Gametheory.Best_response.converged;
      Printf.sprintf "%.2e" (Numerics.Vec.dist_inf br_final static);
    ];
  Report.Table.add_row summary
    [
      "projected gradient flow";
      string_of_bool flow.Gametheory.Gradient_dynamics.stationary;
      Printf.sprintf "%.2e"
        (Numerics.Vec.dist_inf flow.Gametheory.Gradient_dynamics.final
           static);
    ];

  let contraction = Gametheory.Best_response.contraction_estimate br in
  let vi_alt = Nash.solve_vi ~tol:1e-9 game in
  let checks =
    [
      Common.check ~name:"dynamics.br-converges" br.Gametheory.Best_response.converged
        "discrete tatonnement settles";
      Common.check ~name:"dynamics.flow-stationary"
        flow.Gametheory.Gradient_dynamics.stationary
        "the gradient flow reaches a VI-stationary point";
      Common.check ~name:"dynamics.agree" report.Dynamics.agree
        "both processes reach the same profile";
      Common.check ~name:"dynamics.match-static"
        (Numerics.Vec.dist_inf flow.Gametheory.Gradient_dynamics.final static < 1e-4)
        "dynamics agree with the static Nash solver";
      Common.check ~name:"dynamics.contraction"
        (match contraction with Some r -> r < 1. | None -> true)
        (Printf.sprintf "empirical contraction factor %s"
           (match contraction with Some r -> Printf.sprintf "%.3f" r | None -> "n/a"));
      Common.check ~name:"dynamics.vi-crosscheck"
        (vi_alt.Nash.converged
        && Numerics.Vec.dist_inf vi_alt.Nash.subsidies static < 1e-5)
        "the extragradient VI solver finds the same equilibrium";
    ]
  in
  {
    Common.id = "dynamics";
    title = "Adjustment dynamics: tatonnement, gradient flow and VI cross-check";
    tables = [ ("summary", summary); ("br_trace", trace_table) ];
    plots = [];
    shape_checks = checks;
  }

let experiment =
  {
    Common.id = "dynamics";
    title = "Off-equilibrium adjustment dynamics (extension)";
    paper_ref = "Section 4.2 (dynamics of subsidies)";
    run;
  }
