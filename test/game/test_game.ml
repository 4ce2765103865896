let () =
  Alcotest.run "gametheory"
    [
      Suite_box.suite;
      Suite_matrix_props.suite;
      Suite_vi.suite;
      Suite_best_response.suite;
      Suite_gradient_dynamics.suite;
    ]
