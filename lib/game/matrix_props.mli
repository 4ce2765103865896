(** Matrix classes used in the uniqueness and stability analysis.

    Theorem 4 requires [-grad u] to be a P-function (its Jacobian a
    P-matrix on the relevant domain); Corollary 1 requires it to be an
    M-matrix (a P-matrix with non-positive off-diagonal entries, the
    Leontief condition). *)

val is_p_matrix : ?tol:float -> Numerics.Mat.t -> bool
(** All [2^n - 1] principal minors strictly positive (above [tol],
    default 0). Exponential in the dimension; fine for the game sizes
    here (n <= ~15). Raises [Invalid_argument] beyond dimension 20. *)

val is_off_diagonally_nonnegative : ?tol:float -> Numerics.Mat.t -> bool
(** All off-diagonal entries [>= -tol]: the paper's "off-diagonally
    monotone" condition on [grad u] (so that [-grad u] is Leontief). *)
