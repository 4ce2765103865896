open Test_helpers

let families =
  [
    ("exponential", Econ.Throughput.exponential ~l0:2. ~beta:3. ());
    ("isoelastic", Econ.Throughput.isoelastic ~l0:2. ~beta:3. ());
    ("rational", Econ.Throughput.rational ~l0:2. ~beta:3. ());
  ]

let test_exponential_values () =
  let th = Econ.Throughput.exponential ~beta:2. () in
  check_close "lambda(0) = l0" 1. (Econ.Throughput.rate th 0.);
  check_close ~tol:1e-12 "lambda(1)" (exp (-2.)) (Econ.Throughput.rate th 1.);
  check_close ~tol:1e-12 "elasticity = -beta phi" (-2.) (Econ.Throughput.elasticity th 1.);
  check_close "elasticity at 0" 0. (Econ.Throughput.elasticity th 0.)

let test_validation () =
  check_raises_invalid "beta <= 0" (fun () ->
      Econ.Throughput.exponential ~beta:0. () |> ignore);
  check_raises_invalid "negative phi" (fun () ->
      Econ.Throughput.rate (snd (List.hd families)) (-0.1) |> ignore)

let assumption1 name th =
  let phis = Numerics.Grid.linspace 0. 8. 40 in
  Array.iteri
    (fun k phi ->
      let l = Econ.Throughput.rate th phi in
      check_true (name ^ " positive") (l > 0.);
      if k > 0 then
        check_true (name ^ " decreasing") (l < Econ.Throughput.rate th phis.(k - 1));
      let numeric = Numerics.Diff.central (Econ.Throughput.rate th) (phi +. 0.01) in
      check_close ~tol:1e-5 (name ^ " analytic derivative") numeric
        (Econ.Throughput.derivative th (phi +. 0.01)))
    phis;
  check_true (name ^ " vanishes at high utilization")
    (Econ.Throughput.rate th 500. < 0.02)

let test_assumption1_all_families () =
  List.iter (fun (name, th) -> assumption1 name th) families

let test_scaling () =
  List.iter
    (fun (name, th) ->
      let scaled = Econ.Throughput.scale_rate th ~kappa:3. in
      check_close ~tol:1e-12 (name ^ " scaled rate")
        (3. *. Econ.Throughput.rate th 0.8)
        (Econ.Throughput.rate scaled 0.8);
      (* Lemma 2 requires scaling to preserve the phi-elasticity *)
      check_close ~tol:1e-12 (name ^ " elasticity preserved")
        (Econ.Throughput.elasticity th 0.8)
        (Econ.Throughput.elasticity scaled 0.8))
    families

let test_spec_roundtrip () =
  List.iter
    (fun (name, th) ->
      let rebuilt = Econ.Throughput.make (Econ.Throughput.spec th) in
      check_close (name ^ " spec roundtrip")
        (Econ.Throughput.rate th 1.3)
        (Econ.Throughput.rate rebuilt 1.3))
    families

let prop_rational_halves_at_inverse_beta =
  prop "rational throughput halves at phi = 1/beta" ~count:100 (float_range 0.2 5.)
    (fun beta ->
      let th = Econ.Throughput.rational ~beta () in
      Float.abs (Econ.Throughput.rate th (1. /. beta) -. 0.5) < 1e-9)

(* the direct float kernels against the field-generic kernel at
   floats, bit for bit, for every family *)
module K_float = Econ.Throughput.Kernel (Numerics.Field.Float_s)

let prop_direct_kernel_bit_identical =
  let spec =
    QCheck2.Gen.(
      map
        (fun (family, l0, beta) ->
          match family with
          | 0 -> Econ.Throughput.Exponential { l0; beta }
          | 1 -> Econ.Throughput.Isoelastic { l0; beta }
          | _ -> Econ.Throughput.Rational { l0; beta })
        (triple (int_bound 2) (float_range 0.1 3.) (float_range 0.2 6.)))
  in
  let utilization = QCheck2.Gen.(oneof [ return 0.; float_range 0. 3.; float_range 0. 500. ]) in
  prop "direct float kernel is bit-identical to Kernel (Float_s)" ~count:500
    ~print:(fun (spec, phi) ->
      Printf.sprintf "%s at phi = %.17g" (Econ.Throughput.label (Econ.Throughput.make spec)) phi)
    (QCheck2.Gen.pair spec utilization)
    (fun (spec, phi) ->
      let th = Econ.Throughput.make spec in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      same (Econ.Throughput.rate th phi) (K_float.rate spec phi)
      && same (Econ.Throughput.derivative th phi) (K_float.slope spec phi))

let suite =
  ( "throughput",
    [
      quick "exponential values" test_exponential_values;
      quick "validation" test_validation;
      quick "assumption 1 (all families)" test_assumption1_all_families;
      quick "lemma-2 scaling" test_scaling;
      quick "spec roundtrip" test_spec_roundtrip;
      prop_rational_halves_at_inverse_beta;
      prop_direct_kernel_bit_identical;
    ] )
