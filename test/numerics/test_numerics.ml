let () =
  Alcotest.run "numerics"
    [
      Suite_vec.suite;
      Suite_mat.suite;
      Suite_linalg.suite;
      Suite_rootfind.suite;
      Suite_diff.suite;
      Suite_dual.suite;
      Suite_continuation.suite;
      Suite_optimize.suite;
      Suite_quadrature.suite;
      Suite_rng.suite;
      Suite_stats.suite;
      Suite_grid.suite;
      Suite_ode.suite;
    ]
