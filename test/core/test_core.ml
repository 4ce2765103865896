let () =
  Alcotest.run "subsidization-core"
    [
      Suite_system.suite;
      Suite_one_sided.suite;
      Suite_subsidy_game.suite;
      Suite_nash.suite;
      Suite_sensitivity.suite;
      Suite_exact_derivs.suite;
      Suite_revenue.suite;
      Suite_welfare.suite;
      Suite_policy.suite;
      Suite_capacity.suite;
      Suite_scenario.suite;
      Suite_theorems.suite;
      Suite_dynamics.suite;
      Suite_duopoly.suite;
      Suite_longrun.suite;
      Suite_edge.suite;
    ]
