open Test_helpers

let families =
  [
    ("exponential", Econ.Demand.exponential ~m0:2. ~alpha:3. ());
    ("isoelastic", Econ.Demand.isoelastic ~m0:2. ~alpha:3. ~scale:1.5 ());
    ("logit", Econ.Demand.logit ~m0:2. ~slope:3. ~midpoint:0.5 ());
  ]

let test_exponential_values () =
  let d = Econ.Demand.exponential ~alpha:2. () in
  check_close "m(0) = m0" 1. (Econ.Demand.population d 0.);
  check_close ~tol:1e-12 "m(1) = e^-2" (exp (-2.)) (Econ.Demand.population d 1.);
  check_close ~tol:1e-12 "m'(1)" (-2. *. exp (-2.)) (Econ.Demand.derivative d 1.);
  check_close ~tol:1e-12 "elasticity = -alpha t" (-2.) (Econ.Demand.elasticity d 1.)

let test_validation () =
  check_raises_invalid "alpha <= 0" (fun () ->
      Econ.Demand.exponential ~alpha:0. () |> ignore);
  check_raises_invalid "m0 <= 0" (fun () ->
      Econ.Demand.exponential ~m0:(-1.) ~alpha:1. () |> ignore);
  check_raises_invalid "nan midpoint" (fun () ->
      Econ.Demand.logit ~midpoint:Float.nan ~slope:1. () |> ignore)

let assumption2 name d =
  (* decreasing, positive, differentiable (analytic matches numeric),
     defined for subsidized negative charges too *)
  let ts = Numerics.Grid.linspace (-1.5) 6. 40 in
  Array.iteri
    (fun k t ->
      let m = Econ.Demand.population d t in
      check_true (name ^ " positive") (m > 0.);
      if k > 0 then
        check_true (name ^ " decreasing") (m < Econ.Demand.population d ts.(k - 1));
      let numeric = Numerics.Diff.central (Econ.Demand.population d) t in
      check_close ~tol:1e-5 (name ^ " analytic derivative") numeric
        (Econ.Demand.derivative d t))
    ts;
  check_true (name ^ " vanishes at infinity") (Econ.Demand.population d 300. < 1e-4)

let test_assumption2_all_families () =
  List.iter (fun (name, d) -> assumption2 name d) families

let test_spec_roundtrip () =
  List.iter
    (fun (name, d) ->
      let rebuilt = Econ.Demand.make (Econ.Demand.spec d) in
      check_close (name ^ " spec roundtrip")
        (Econ.Demand.population d 0.7)
        (Econ.Demand.population rebuilt 0.7))
    families

let test_scaling () =
  List.iter
    (fun (name, d) ->
      let scaled = Econ.Demand.scale_population d ~kappa:4. in
      check_close ~tol:1e-12 (name ^ " scaled by 1/kappa")
        (Econ.Demand.population d 0.9 /. 4.)
        (Econ.Demand.population scaled 0.9))
    families;
  check_raises_invalid "kappa <= 0" (fun () ->
      Econ.Demand.scale_population (snd (List.hd families)) ~kappa:0. |> ignore)

let test_labels () =
  List.iter
    (fun (name, d) ->
      check_true (name ^ " label nonempty") (String.length (Econ.Demand.label d) > 0))
    families

let prop_exponential_elasticity =
  prop "exponential demand elasticity is -alpha*t" ~count:100
    QCheck2.Gen.(pair (float_range 0.5 5.) (float_range 0.01 3.))
    (fun (alpha, t) ->
      let d = Econ.Demand.exponential ~alpha () in
      Float.abs (Econ.Demand.elasticity d t +. (alpha *. t)) < 1e-9)

let prop_elasticity_matches_numeric =
  prop "elasticity matches the numeric log-derivative" ~count:100
    QCheck2.Gen.(pair (float_range 0.5 4.) (float_range 0.1 2.))
    (fun (alpha, t) ->
      let d = Econ.Demand.isoelastic ~alpha () in
      let m = Econ.Demand.population d in
      let numeric = Numerics.Diff.central m t *. t /. m t in
      Float.abs (Econ.Demand.elasticity d t -. numeric) < 1e-4)

let suite =
  ( "demand",
    [
      quick "exponential values" test_exponential_values;
      quick "validation" test_validation;
      quick "assumption 2 (all families)" test_assumption2_all_families;
      quick "spec roundtrip" test_spec_roundtrip;
      quick "lemma-2 scaling" test_scaling;
      quick "labels" test_labels;
      prop_exponential_elasticity;
      prop_elasticity_matches_numeric;
    ] )
