type t = {
  diag : Vec.t;
  a : Vec.t;
  w : Vec.t;
  b : Vec.t;
  z : Vec.t;
}

let dim m = Vec.dim m.diag

let to_mat m =
  let n = dim m in
  Mat.init ~rows:n ~cols:n (fun k j ->
      let low_rank = (m.a.(k) *. m.w.(j)) +. (m.b.(k) *. m.z.(j)) in
      if k = j then m.diag.(k) +. low_rank else low_rank)

let couple m x =
  Precondition.require ~fn:"Rank2.couple" (Vec.dim x = dim m) "dimension mismatch";
  let wx = Vec.dot m.w x and zx = Vec.dot m.z x in
  Vec.init (dim m) (fun k -> (m.a.(k) *. wx) +. (m.b.(k) *. zx))

(* a zero pivot of the diagonal or of the capacitance: the block has
   no Woodbury factorization, reported as the dense LU reports a
   singular matrix *)
let singular () =
  (raise Linalg.Singular
  [@sublint.allow "NO-BARE-RAISE"
      "Linalg.Singular is the typed singular-matrix outcome that every \
       caller of a linear solve already handles"])

(* (D + A B^T)^-1 r = y - P C^-1 B^T y, with D = diag over idx,
   A = [a b], B = [w z], y = D^-1 r, P = D^-1 A and the capacitance
   C = I + B^T P. The formula loses accuracy when a diagonal entry is
   small against its row's low-rank part (P is large), so one step of
   iterative refinement on the O(n) residual follows: on subsidy-game
   Jacobians the plain formula missed the dense LU solution by up to
   6e-7 of its size, the refined one stayed within the LU's own
   rounding over a million draws. *)
let solve m ~idx r =
  let n = Array.length idx in
  Precondition.require ~fn:"Rank2.solve" (Vec.dim r = n) "dimension mismatch";
  let pa = Array.create_float n and pb = Array.create_float n in
  let c11 = ref 1. and c12 = ref 0. and c21 = ref 0. and c22 = ref 1. in
  Array.iteri
    (fun i k ->
      let e = m.diag.(k) in
      if not (Float.abs e > 0.) then singular ();
      pa.(i) <- m.a.(k) /. e;
      pb.(i) <- m.b.(k) /. e;
      let wk = m.w.(k) and zk = m.z.(k) in
      c11 := !c11 +. (wk *. pa.(i));
      c12 := !c12 +. (wk *. pb.(i));
      c21 := !c21 +. (zk *. pa.(i));
      c22 := !c22 +. (zk *. pb.(i)))
    idx;
  let det = (!c11 *. !c22) -. (!c12 *. !c21) in
  if not (Float.is_finite det && Float.abs det > 0.) then singular ();
  (* w^T v and z^T v over the block *)
  let project v =
    let wv = ref 0. and zv = ref 0. in
    Array.iteri
      (fun i k ->
        wv := !wv +. (m.w.(k) *. v.(i));
        zv := !zv +. (m.z.(k) *. v.(i)))
      idx;
    (!wv, !zv)
  in
  let apply_inverse r =
    let y = Array.mapi (fun i k -> r.(i) /. m.diag.(k)) idx in
    let wy, zy = project y in
    let g1 = ((!c22 *. wy) -. (!c12 *. zy)) /. det in
    let g2 = ((!c11 *. zy) -. (!c21 *. wy)) /. det in
    Array.init n (fun i -> y.(i) -. (pa.(i) *. g1) -. (pb.(i) *. g2))
  in
  let x = apply_inverse r in
  let wx, zx = project x in
  let residual =
    Array.mapi
      (fun i k -> r.(i) -. ((m.diag.(k) *. x.(i)) +. (m.a.(k) *. wx) +. (m.b.(k) *. zx)))
      idx
  in
  let dx = apply_inverse residual in
  Array.mapi (fun i xi -> xi +. dx.(i)) x
