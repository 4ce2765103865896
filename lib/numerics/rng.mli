(** Deterministic pseudo-random numbers (splitmix64).

    Used for workload generation in property tests and benchmarks; a
    fixed seed reproduces a run exactly, independent of the OCaml
    stdlib's generator. *)

type t

val create : int64 -> t
(** A fresh generator from a 64-bit seed. *)

val split : t -> t
(** An independent generator derived from (and advancing) [t]. *)

val split_n : t -> int -> t array
(** [split_n t n] is [n] independent generators split off [t] in
    sequence. Splitting is a pure function of the parent's state, so
    pre-splitting one child per Monte-Carlo sample makes a sweep's
    draws independent of evaluation order — the mechanism that keeps
    parallel sweeps bit-identical at any [--jobs] value. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. Requires [lo < hi]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val exponential : t -> rate:float -> float
(** Exponential variate with the given positive rate. *)

val normal : t -> mean:float -> stddev:float -> float
(** Gaussian variate by Box-Muller. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
