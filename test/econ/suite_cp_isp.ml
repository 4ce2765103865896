open Test_helpers

let cp () = Econ.Cp.exponential ~name:"t" ~alpha:2. ~beta:3. ~value:0.8 ()

let test_cp_make () =
  let c = cp () in
  Alcotest.(check string) "name" "t" c.Econ.Cp.name;
  check_close "value" 0.8 c.Econ.Cp.value;
  check_raises_invalid "negative value" (fun () ->
      Econ.Cp.exponential ~alpha:1. ~beta:1. ~value:(-0.1) () |> ignore)

let test_cp_accessors () =
  let c = cp () in
  check_close ~tol:1e-12 "population" (exp (-1.)) (Econ.Cp.population c 0.5);
  check_close ~tol:1e-12 "rate" (exp (-1.5)) (Econ.Cp.rate c 0.5);
  check_close ~tol:1e-12 "throughput_at" (exp (-1.) *. exp (-1.5))
    (Econ.Cp.throughput_at c ~charge:0.5 ~phi:0.5);
  check_close "utility" (0.5 *. 2.) (Econ.Cp.utility c ~subsidy:0.3 ~throughput:2.)

let test_cp_default_name () =
  let c = Econ.Cp.exponential ~alpha:1. ~beta:2. ~value:0.5 () in
  check_true "default name mentions parameters"
    (String.length c.Econ.Cp.name > 0 && String.contains c.Econ.Cp.name 'a')

let test_cp_scale () =
  let c = cp () in
  let s = Econ.Cp.scale c ~kappa:2. in
  check_close ~tol:1e-12 "scaled population" (Econ.Cp.population c 0.4 /. 2.)
    (Econ.Cp.population s 0.4);
  check_close ~tol:1e-12 "scaled rate" (2. *. Econ.Cp.rate c 0.4) (Econ.Cp.rate s 0.4);
  check_close ~tol:1e-12 "throughput invariant"
    (Econ.Cp.throughput_at c ~charge:0.4 ~phi:0.6)
    (Econ.Cp.throughput_at s ~charge:0.4 ~phi:0.6)

let test_pp () =
  check_true "cp pp" (String.length (Format.asprintf "%a" Econ.Cp.pp (cp ())) > 0)

let suite =
  ( "cp-isp",
    [
      quick "cp make" test_cp_make;
      quick "cp accessors" test_cp_accessors;
      quick "cp default name" test_cp_default_name;
      quick "cp lemma-2 scale" test_cp_scale;
      quick "pretty printers" test_pp;
    ] )
