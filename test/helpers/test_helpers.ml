(* Shared assertions and generators for the test suites. *)

let check_close ?(tol = 1e-9) msg expected actual =
  if
    not
      (Float.abs (expected -. actual)
      <= tol +. (tol *. Float.max (Float.abs expected) (Float.abs actual)))
  then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %.2g)" msg expected actual tol

let check_in_range msg ~lo ~hi actual =
  if actual < lo || actual > hi then
    Alcotest.failf "%s: %.12g outside [%.12g, %.12g]" msg actual lo hi

let check_true msg cond = Alcotest.(check bool) msg true cond

let check_raises_invalid msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  | exception Invalid_argument _ -> ()

let quick name f = Alcotest.test_case name `Quick f

(* QCheck integration ------------------------------------------------ *)

let prop ?(count = 100) ?print name arb law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name arb law)

let float_range lo hi = QCheck2.Gen.float_range lo hi

let small_positive = QCheck2.Gen.float_range 0.1 5.

(* A deterministic Numerics RNG per test, seeded from QCheck's int. *)
let rng_gen = QCheck2.Gen.map (fun i -> Numerics.Rng.create (Int64.of_int i)) QCheck2.Gen.int
