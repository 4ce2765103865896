(** Direct solvers for small dense linear systems.

    LU decomposition with partial pivoting is the workhorse; everything
    else (solve, inverse, determinant) is derived from it. Matrices in
    this project are tiny (the number of content providers, typically
    under 100), so an O(n^3) dense factorization is the right tool. *)

exception Singular
(** Raised when a factorization or solve meets a (numerically) singular
    matrix. *)

val solve : Mat.t -> Vec.t -> Vec.t
(** [solve a b] solves [a x = b]. Raises [Singular]. *)

val solve_many : Mat.t -> Vec.t list -> Vec.t list
(** Solve several right-hand sides reusing one factorization. *)

val inverse : Mat.t -> Mat.t
(** Raises [Singular]. *)

val det : Mat.t -> float
(** Determinant via LU (0 when the factorization is singular). *)

val condition_inf : Mat.t -> float
(** Condition number estimate [||A||_inf * ||A^-1||_inf]; [infinity] for
    singular matrices. *)

val lstsq : Mat.t -> Vec.t -> Vec.t
(** [lstsq a b] is the least-squares solution of the overdetermined
    system [a x ~ b] via the normal equations [(a^T a) x = a^T b]
    (adequate for the small, well-conditioned regressions used here).
    Requires [rows >= cols]; raises [Singular] for rank-deficient
    designs. *)

val leading_principal_minors : Mat.t -> float array
(** Determinants of the leading principal submatrices [1..n]. *)

val principal_minor : Mat.t -> int array -> float
(** Determinant of the principal submatrix indexed by the given
    (strictly increasing) index set. *)
