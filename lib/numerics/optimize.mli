(** Derivative-free optimization on intervals and boxes.

    All routines *maximize*; wrap the objective in a negation to
    minimize. *)

type result1d = {
  x : float;  (** arg max *)
  fx : float;  (** objective at [x] *)
  iterations : int;
  evaluations : int;
}

val golden_section :
  ?tol:float -> ?max_iter:int -> (float -> float) -> lo:float -> hi:float -> result1d
(** Golden-section search for a unimodal objective on [\[lo, hi\]].
    [tol] is the final interval width (default [1e-10]). *)

val brent_max :
  ?tol:float -> ?max_iter:int -> (float -> float) -> lo:float -> hi:float -> result1d
(** Brent's parabolic-interpolation maximizer; faster than golden
    section near smooth maxima. [tol] is relative: it stops once the
    bracket around the best point [x] is at most
    [4 (tol |x| + 1e-12)] wide. *)

val grid_then_brent :
  ?points:int ->
  ?tol:float ->
  (float -> float) ->
  lo:float ->
  hi:float ->
  result1d
(** Coarse scan with [points] samples (default 33) to locate the
    best bracket, then {!brent_max} refinement inside it. Robust for
    objectives that are unimodal only piecewise. [tol] is absolute
    (default [1e-10]): the refinement's final bracket is at most [tol]
    wide (but not below [4e-12]), as golden section's would be. *)

val argmax_on_grid : (float -> float) -> float array -> result1d
(** Exhaustive evaluation on the given abscissae; ties keep the first. *)

val coordinate_ascent :
  ?tol:float ->
  ?max_sweeps:int ->
  ?points:int ->
  (Vec.t -> float) ->
  lo:Vec.t ->
  hi:Vec.t ->
  x0:Vec.t ->
  Vec.t * float
(** Cyclic coordinate ascent on a box: each sweep maximizes the
    objective along every coordinate with [grid_then_brent]. Stops when
    a sweep moves the point by at most [tol] in the sup norm. Returns
    the final point and objective value. *)
