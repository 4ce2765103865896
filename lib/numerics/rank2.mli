(** Diagonal-plus-rank-two matrices [M = diag(diag) + a w^T + b z^T].

    The subsidy game's marginal-utility Jacobian has this shape: a CP's
    marginal depends on the other CPs' subsidies only through the
    utilization [phi] and the gap slope [g'(phi)], so every column
    outside the diagonal lies in the span of two vectors. Products and
    principal-block solves cost O(n) on the five vectors; the dense
    matrix is formed only by {!to_mat}, for checks. *)

type t = {
  diag : Vec.t;
  a : Vec.t;
  w : Vec.t;
  b : Vec.t;
  z : Vec.t;
}
(** All five vectors have the matrix dimension. *)

val to_mat : t -> Mat.t
(** The dense matrix, entry [(k, j)] = [diag_k [k = j] + a_k w_j + b_k z_j]. *)

val couple : t -> Vec.t -> Vec.t
(** [(a w^T + b z^T) x]: the product without the diagonal. For [x]
    supported on an index set [A], its rows outside [A] are the
    off-diagonal block [M_{.,A} x_A]. *)

val solve : t -> idx:int array -> Vec.t -> Vec.t
(** [solve m ~idx r] solves the principal block [M_{idx,idx} x = r] by
    the Woodbury identity with a 2x2 capacitance
    [I + [w z]^T D^-1 [a b]] and one step of iterative refinement, in
    O(|idx|). Raises {!Linalg.Singular} when a diagonal entry of the
    block is zero (or NaN) or the capacitance is singular or not
    finite. *)
