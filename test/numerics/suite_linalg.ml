open Numerics
open Test_helpers

let random_invertible rng n =
  (* diagonally dominant => invertible *)
  Mat.init ~rows:n ~cols:n (fun i j ->
      if i = j then 5. +. Rng.float rng else Rng.uniform rng ~lo:(-1.) ~hi:1.)

let test_solve_known () =
  let a = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let b = Vec.of_list [ 5.; 10. ] in
  let x = Linalg.solve a b in
  check_close "x0" 1. x.(0);
  check_close "x1" 3. x.(1)

let test_det () =
  let a = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  check_close "det 2x2" 5. (Linalg.det a);
  check_close "det identity" 1. (Linalg.det (Mat.identity 4));
  let singular = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  check_close "det singular" 0. (Linalg.det singular)

let test_inverse () =
  let a = Mat.of_rows [| [| 4.; 7. |]; [| 2.; 6. |] |] in
  let inv = Linalg.inverse a in
  check_true "A * A^-1 = I" (Mat.approx_equal ~tol:1e-10 (Mat.matmul a inv) (Mat.identity 2))

let test_singular_raises () =
  let s = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  (match Linalg.solve s (Vec.of_list [ 1.; 2. ]) with
  | _ -> Alcotest.fail "expected Singular"
  | exception Linalg.Singular -> ());
  match Linalg.inverse s with
  | _ -> Alcotest.fail "expected Singular"
  | exception Linalg.Singular -> ()

let test_not_square () =
  check_raises_invalid "solve non-square" (fun () ->
      Linalg.solve (Mat.zeros ~rows:2 ~cols:3) (Vec.zeros 2) |> ignore)

let test_solve_many () =
  let a = Mat.of_rows [| [| 3.; 0. |]; [| 0.; 2. |] |] in
  match Linalg.solve_many a [ Vec.of_list [ 3.; 4. ]; Vec.of_list [ 6.; 2. ] ] with
  | [ x1; x2 ] ->
    check_close "x1" 1. x1.(0);
    check_close "x1b" 2. x1.(1);
    check_close "x2" 2. x2.(0);
    check_close "x2b" 1. x2.(1)
  | _ -> Alcotest.fail "wrong result arity"

let test_pivoting () =
  (* zero on the initial pivot forces a row swap *)
  let a = Mat.of_rows [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Linalg.solve a (Vec.of_list [ 2.; 3. ]) in
  check_close "swap x0" 3. x.(0);
  check_close "swap x1" 2. x.(1);
  check_close "det with swap" (-1.) (Linalg.det a)

let test_condition () =
  check_close ~tol:1e-9 "cond(I)" 1. (Linalg.condition_inf (Mat.identity 3));
  check_true "cond singular = inf"
    (Linalg.condition_inf (Mat.of_rows [| [| 1.; 1. |]; [| 1.; 1. |] |]) = infinity)

let test_minors () =
  let a = Mat.of_rows [| [| 2.; 1.; 0. |]; [| 1.; 3.; 1. |]; [| 0.; 1.; 4. |] |] in
  let minors = Linalg.leading_principal_minors a in
  check_close "minor 1" 2. minors.(0);
  check_close "minor 2" 5. minors.(1);
  check_close "minor 3" (Linalg.det a) minors.(2);
  check_close "principal {0,2}" 8. (Linalg.principal_minor a [| 0; 2 |]);
  check_close "empty minor" 1. (Linalg.principal_minor a [||]);
  check_raises_invalid "non-increasing idx" (fun () ->
      Linalg.principal_minor a [| 2; 0 |] |> ignore)

let test_lstsq () =
  (* overdetermined consistent system *)
  let a = Mat.of_rows [| [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] |] in
  let x_true = Vec.of_list [ 2.; -1. ] in
  let b = Mat.matvec a x_true in
  let x = Linalg.lstsq a b in
  check_true "consistent solution" (Vec.approx_equal ~tol:1e-10 x x_true);
  (* inconsistent: projects onto the column space *)
  let b' = Vec.of_list [ 1.; 1.; 0. ] in
  let x' = Linalg.lstsq a b' in
  (* normal equations: [[2,1],[1,2]] x = [1,1] => x = (1/3, 1/3) *)
  check_close ~tol:1e-10 "ls x0" (1. /. 3.) x'.(0);
  check_close ~tol:1e-10 "ls x1" (1. /. 3.) x'.(1);
  check_raises_invalid "underdetermined" (fun () ->
      Linalg.lstsq (Mat.zeros ~rows:1 ~cols:2) (Vec.zeros 1) |> ignore)

let prop_solve_roundtrip =
  prop "A x = b roundtrip on random diagonally dominant systems" ~count:100 rng_gen
    (fun rng ->
      let n = 2 + Rng.int rng 6 in
      let a = random_invertible rng n in
      let x_true = Vec.init n (fun _ -> Rng.uniform rng ~lo:(-3.) ~hi:3.) in
      let b = Mat.matvec a x_true in
      let x = Linalg.solve a b in
      Vec.dist_inf x x_true < 1e-8)

let prop_det_product =
  prop "det(AB) = det(A) det(B)" ~count:60 rng_gen (fun rng ->
      let a = random_invertible rng 3 and b = random_invertible rng 3 in
      let lhs = Linalg.det (Mat.matmul a b) in
      let rhs = Linalg.det a *. Linalg.det b in
      Float.abs (lhs -. rhs) <= 1e-6 *. Float.max 1. (Float.abs rhs))

let prop_inverse_roundtrip =
  prop "A^-1 A = I" ~count:60 rng_gen (fun rng ->
      let n = 2 + Rng.int rng 5 in
      let a = random_invertible rng n in
      Mat.approx_equal ~tol:1e-8 (Mat.matmul (Linalg.inverse a) a) (Mat.identity n))

(* a diagonal-plus-rank-two matrix with a dominant diagonal *)
let random_rank2 rng n =
  let v () = Vec.init n (fun _ -> Rng.uniform rng ~lo:(-0.5) ~hi:0.5) in
  { Rank2.diag = Vec.init n (fun _ -> 3. +. Rng.float rng); a = v (); w = v (); b = v (); z = v () }

let prop_rank2_matches_dense =
  prop "rank-two: couple and block solve match the dense matrix" ~count:100 rng_gen
    (fun rng ->
      let n = 2 + Rng.int rng 7 in
      let m = random_rank2 rng n in
      let dense = Rank2.to_mat m in
      let x = Vec.init n (fun _ -> Rng.uniform rng ~lo:(-2.) ~hi:2.) in
      let off_diagonal = Mat.matvec (Mat.sub dense (Mat.diag m.Rank2.diag)) x in
      let idx = Array.of_list (List.filter (fun _ -> Rng.int rng 3 > 0) (List.init n Fun.id)) in
      let idx = if idx = [||] then [| 0 |] else idx in
      let block = Mat.submatrix dense ~row_idx:idx ~col_idx:idx in
      let r = Vec.init (Array.length idx) (fun _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.) in
      Vec.dist_inf (Rank2.couple m x) off_diagonal <= 1e-12
      && Vec.dist_inf (Rank2.solve m ~idx r) (Linalg.solve block r) <= 1e-12)

let test_rank2_singular () =
  let m =
    { Rank2.diag = [| 2.; 0.; 1. |]; a = [| 1.; 0.; 0. |]; w = [| 0.; 0.; 1. |];
      b = [| 0.; 0.; 0. |]; z = [| 0.; 0.; 0. |] }
  in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Linalg.Singular" name
    | exception Linalg.Singular -> ()
  in
  raises "zero diagonal in the block" (fun () -> Rank2.solve m ~idx:[| 0; 1 |] [| 1.; 1. |]);
  (* outside the block the zero does not matter *)
  check_close "block without it" 0.5 (Rank2.solve m ~idx:[| 0 |] [| 1. |]).(0);
  (* over the block {0, 2}, I + a w^T is [[1, 1], [0, 0]]: the
     capacitance 1 + w^T D^-1 a is 0 *)
  let m = { m with Rank2.diag = [| 1.; 1.; 1. |]; a = [| 1.; 0.; -1. |]; w = [| 0.; 0.; 1. |] } in
  raises "singular capacitance" (fun () -> Rank2.solve m ~idx:[| 0; 2 |] [| 1.; 1. |])

let suite =
  ( "linalg",
    [
      quick "solve known" test_solve_known;
      quick "determinant" test_det;
      quick "inverse" test_inverse;
      quick "singular raises" test_singular_raises;
      quick "non-square" test_not_square;
      quick "solve_many" test_solve_many;
      quick "pivoting" test_pivoting;
      quick "condition" test_condition;
      quick "principal minors" test_minors;
      quick "least squares" test_lstsq;
      prop_solve_roundtrip;
      prop_det_product;
      prop_inverse_roundtrip;
      prop_rank2_matches_dense;
      quick "rank-two singular blocks" test_rank2_singular;
    ] )
