(** Numerical differentiation by finite differences.

    Step sizes scale with the magnitude of the evaluation point; the
    defaults balance truncation against round-off for double precision
    ([h ~ eps^(1/3)] for central differences). *)

val central : ?h:float -> (float -> float) -> float -> float
(** First derivative by central difference. *)

val forward : ?h:float -> (float -> float) -> float -> float

val backward : ?h:float -> (float -> float) -> float -> float

val second : ?h:float -> (float -> float) -> float -> float
(** Second derivative by the three-point central stencil. *)

val richardson : ?h:float -> ?levels:int -> (float -> float) -> float -> float
(** Richardson-extrapolated central difference ([levels] default 3);
    roughly two extra digits over [central] for smooth functions. *)

val partial : ?h:float -> (Vec.t -> float) -> Vec.t -> int -> float
(** [partial f x i] is [df/dx_i] at [x] by central difference. *)

val gradient : ?h:float -> (Vec.t -> float) -> Vec.t -> Vec.t

val jacobian : ?h:float -> (Vec.t -> Vec.t) -> Vec.t -> Mat.t
(** Row [i], column [j] holds [df_i/dx_j]. *)

val hessian : ?h:float -> (Vec.t -> float) -> Vec.t -> Mat.t
(** Symmetric central-difference Hessian. *)

type stats = { estimates : float }
(** Cumulative finite-difference derivative estimates since the last
    reset (the [numerics.deriv.fd] counter — one tick per stenciled
    scalar derivative, per Jacobian column, per Hessian row). *)

val stats : unit -> stats
val reset_stats : unit -> unit
