(** Exact differentiation by forward-mode AD — {!Diff}'s API shape,
    minus the stencils.

    Each function takes a kernel written over {!Dual} (or
    {!Dual.Order2}) values and evaluates it with unit seeds: one pass
    per seed variable, derivatives exact to round-off. Every seeded
    pass increments the [numerics.deriv.ad] counter, the mirror of
    [numerics.deriv.fd] in {!Diff}, so the bench tables can prove a
    code path stopped stenciling. *)

val derivative : (Dual.t -> Dual.t) -> float -> float
(** Exact [f'(x)] in one pass. *)

val value_and_derivative : (Dual.t -> Dual.t) -> float -> float * float
(** [(f x, f' x)] from the same single pass. *)

val derivative2 :
  (Dual.Order2.t -> Dual.Order2.t) -> float -> float * float * float
(** [(f x, f' x, f'' x)] from one second-order pass. *)

val gradient : (Dual.t array -> Dual.t) -> Vec.t -> Vec.t
(** One seeded pass per coordinate ([n] passes, each exact). *)

val jacobian : (Dual.t array -> Dual.t array) -> Vec.t -> Mat.t
(** Row [i], column [j] holds [df_i/dx_j]; one pass per column. *)

val record_pass : unit -> unit
(** Tick [numerics.deriv.ad] for a hand-rolled seeded pass (the
    System/game layers evaluate dual kernels directly instead of going
    through the closures above). *)

type stats = { passes : float }
(** Cumulative seeded AD passes since the last reset (the
    [numerics.deriv.ad] counter). *)

val stats : unit -> stats
val reset_stats : unit -> unit
