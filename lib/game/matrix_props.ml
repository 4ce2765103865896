open Numerics

let require_square name m =
  if not (Mat.is_square m) then invalid_arg ("Matrix_props." ^ name ^ ": not square")

(* Enumerate non-empty index subsets of {0..n-1} as bit masks. *)
let is_p_matrix ?(tol = 0.) m =
  require_square "is_p_matrix" m;
  let n = Mat.rows m in
  if n > 20 then invalid_arg "Matrix_props.is_p_matrix: dimension too large (max 20)";
  let ok = ref true in
  let mask = ref 1 in
  let total = 1 lsl n in
  while !ok && !mask < total do
    let idx =
      Array.of_list
        (List.filter (fun i -> (!mask lsr i) land 1 = 1) (List.init n (fun i -> i)))
    in
    if Linalg.principal_minor m idx <= tol then ok := false;
    incr mask
  done;
  !ok

let is_off_diagonally_nonnegative ?(tol = 0.) m =
  require_square "is_off_diagonally_nonnegative" m;
  let n = Mat.rows m in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Mat.get m i j < -.tol then ok := false
    done
  done;
  !ok
