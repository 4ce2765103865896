open Numerics
open Gametheory
open Test_helpers

let m_matrix = Mat.of_rows [| [| 2.; -1. |]; [| -1.; 2. |] |]
let p_not_m = Mat.of_rows [| [| 1.; 0.5 |]; [| 0.5; 1. |] |]
let not_p = Mat.of_rows [| [| 1.; 3. |]; [| 3.; 1. |] |] (* det < 0 *)

let test_p_matrix () =
  check_true "M-matrix is P" (Matrix_props.is_p_matrix m_matrix);
  check_true "positive symmetric is P" (Matrix_props.is_p_matrix p_not_m);
  check_true "indefinite is not P" (not (Matrix_props.is_p_matrix not_p));
  check_true "identity is P" (Matrix_props.is_p_matrix (Mat.identity 4));
  check_raises_invalid "too large" (fun () ->
      Matrix_props.is_p_matrix (Mat.identity 21) |> ignore)

let test_nonsymmetric_p () =
  (* P-matrices need not be symmetric *)
  let a = Mat.of_rows [| [| 1.; -2. |]; [| 0.5; 1. |] |] in
  check_true "nonsymmetric P" (Matrix_props.is_p_matrix a)

let test_off_diagonal () =
  check_true "nonneg off-diag" (Matrix_props.is_off_diagonally_nonnegative p_not_m);
  check_true "neg off-diag" (not (Matrix_props.is_off_diagonally_nonnegative m_matrix))

let prop_diag_dominant_positive_is_p =
  prop "diagonally dominant matrices with positive diagonal are P" ~count:60 rng_gen
    (fun rng ->
      let n = 2 + Rng.int rng 4 in
      let a =
        Mat.init ~rows:n ~cols:n (fun i j ->
            if i = j then float_of_int n +. Rng.float rng
            else Rng.uniform rng ~lo:(-1.) ~hi:1.)
      in
      Matrix_props.is_p_matrix a)

let suite =
  ( "matrix-props",
    [
      quick "P-matrix" test_p_matrix;
      quick "nonsymmetric P" test_nonsymmetric_p;
      quick "off-diagonal" test_off_diagonal;
      prop_diag_dominant_positive_is_p;
    ] )
