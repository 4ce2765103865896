(** Dense floating-point vectors.

    Thin, allocation-explicit wrappers around [float array]. All binary
    operations require equal lengths and raise [Invalid_argument]
    otherwise. *)

type t = float array

val make : int -> float -> t
(** [make n x] is the vector of [n] copies of [x]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [| f 0; ...; f (n-1) |]. *)

val zeros : int -> t

val ones : int -> t

val of_list : float list -> t

val to_list : t -> float list

val copy : t -> t

val dim : t -> int

val basis : int -> int -> t
(** [basis n i] is the [i]-th standard basis vector of dimension [n]. *)

val map : (float -> float) -> t -> t

val add : t -> t -> t

val sub : t -> t -> t

val mul : t -> t -> t
(** Component-wise product. *)

val scale : float -> t -> t

val axpy : float -> t -> t -> t
(** [axpy a x y] is [a *. x + y], freshly allocated. *)

val neg : t -> t

val dot : t -> t -> float

val sum : t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val dist_inf : t -> t -> float
(** [dist_inf x y = norm_inf (sub x y)]. *)

val max_elt : t -> float
(** Largest component. Raises [Invalid_argument] on the empty vector. *)

val min_elt : t -> float

val argmax : t -> int
(** Index of the largest component (first on ties). *)

val argmin : t -> int

val clamp : lo:float -> hi:float -> t -> t
(** Component-wise clamp into [\[lo, hi\]]. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Sup-norm comparison, default [tol = 1e-9]. *)
