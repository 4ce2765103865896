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

(* the direct float kernels against the field-generic kernel at
   floats, bit for bit: every family, charges on both sides of the
   sigmoid's branch and past the softplus cut-over (t / scale > 30) *)
module K_float = Econ.Demand.Kernel (Numerics.Field.Float_s)

let prop_direct_kernel_bit_identical =
  let spec =
    QCheck2.Gen.(
      map
        (fun (family, (m0, p1, p2)) ->
          match family with
          | 0 -> Econ.Demand.Exponential { m0; alpha = p1 }
          | 1 -> Econ.Demand.Isoelastic { m0; alpha = p1; scale = p2 }
          | _ -> Econ.Demand.Logit { m0; slope = p1; midpoint = p2 })
        (pair (int_bound 2)
           (triple (float_range 0.1 3.) (float_range 0.2 6.) (float_range 0.2 3.))))
  in
  (* the charge in units of the isoelastic scale, so a third of the
     draws straddle the softplus cut-over *)
  let charge =
    QCheck2.Gen.(oneof [ float_range (-5.) 5.; float_range 25. 35.; float_range (-50.) 1000. ])
  in
  let point =
    QCheck2.Gen.map
      (fun (spec, r) ->
        match spec with
        | Econ.Demand.Isoelastic { scale; _ } -> (spec, r *. scale)
        | _ -> (spec, r))
      (QCheck2.Gen.pair spec charge)
  in
  prop "direct float kernel is bit-identical to Kernel (Float_s)" ~count:500
    ~print:(fun (spec, t) ->
      Printf.sprintf "%s at t = %.17g" (Econ.Demand.label (Econ.Demand.make spec)) t)
    point
    (fun (spec, t) ->
      let d = Econ.Demand.make spec in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      same (Econ.Demand.population d t) (K_float.population spec t)
      && same (Econ.Demand.derivative d t) (K_float.slope spec t))

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
      prop_direct_kernel_bit_identical;
    ] )
