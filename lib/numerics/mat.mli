(** Dense row-major matrices.

    A matrix is a record of dimensions plus a flat [float array]; entry
    [(i, j)] lives at offset [i * cols + j]. All operations are
    bounds-checked and raise [Invalid_argument] on dimension mismatch. *)

type t

val create : rows:int -> cols:int -> float -> t
(** Constant matrix. Dimensions must be positive. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t

val zeros : rows:int -> cols:int -> t

val identity : int -> t

val diag : Vec.t -> t
(** Square matrix with the given diagonal. *)

val of_rows : float array array -> t
(** Rows must be non-empty and of equal length. *)

val to_rows : t -> float array array

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val copy : t -> t

val transpose : t -> t

val row : t -> int -> Vec.t

val col : t -> int -> Vec.t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val matmul : t -> t -> t

val matvec : t -> Vec.t -> Vec.t

val vecmat : Vec.t -> t -> Vec.t
(** [vecmat x a] is [x^T a] as a vector. *)

val norm_inf : t -> float
(** Maximum absolute row sum. *)

val norm_frobenius : t -> float

val submatrix : t -> row_idx:int array -> col_idx:int array -> t
(** Extract the submatrix indexed by the given rows and columns, in the
    given order. *)

val is_square : t -> bool

val approx_equal : ?tol:float -> t -> t -> bool
