(** Homotopy continuation for parameter sweeps: walk an axis reusing
    the previous cell's solution instead of re-solving from cold.

    A {!track} remembers the last solved cells along one axis and
    predicts the next solution — secant extrapolation once two cells
    are known, an optional AD tangent for the very first step — and
    {!solve_cell} drives one predictor–corrector cell: solve from the
    prediction, fall back to the cold solve when the warm attempt fails
    or does not converge. {!correct} is the scalar corrector itself:
    fused damped Newton ({!Robust.root_fused}) with a fallback to the
    classic {!Robust.root} chain.

    All state a sweep accumulates lives in its own {!track} values,
    created per pool chunk, so warm starts compose at any [--jobs]
    without breaking the determinism contract. *)

(** {2 Predictor track} *)

type track

val track : unit -> track
(** A fresh track with no history (first cell solves cold). *)

val clear : track -> unit
(** Drop the history, e.g. after an unconverged cell. *)

val note : track -> at:float -> Vec.t -> unit
(** Record the solution of the cell at parameter value [at]. *)

val predict : ?tangent:(unit -> Vec.t) -> track -> at:float -> Vec.t option
(** The predicted solution at [at]: secant through the last two cells;
    with one cell, [x + tangent () * (at - at_prev)] when a tangent is
    supplied (e.g. the Theorem-6 sensitivity [ds/dp] from the AD
    Jacobian), else the previous solution unchanged; [None] with no
    history. *)

(** {2 Corrector} *)

type correction =
  | Converged of Robust.projected  (** the fused Newton corrector held *)
  | Fell_back of Robust.success
      (** corrector failed; the cold {!Robust.root} chain recovered *)
  | Failed of Robust.error  (** both failed *)

val correct :
  ?tol:float ->
  ?max_iter:int ->
  ?ctx:string ->
  (float -> float * float) ->
  x0:float ->
  lo:float ->
  hi:float ->
  correction
(** One corrector solve from the predicted [x0]. Iterations land in the
    [continuation.corrector.iters] counter; entering the fallback chain
    increments [continuation.fallbacks]. *)

val record_correction : iterations:int -> fell_back:bool -> unit
(** Account a corrector that lives outside this module (e.g. a vector
    Newton solve of a whole cell) on the same counters as {!correct}:
    [iterations] land in [continuation.corrector.iters], and
    [fell_back] increments [continuation.fallbacks]. *)

(** {2 Cell driver} *)

val solve_cell :
  ?tangent:(unit -> Vec.t) ->
  ?clamp:(Vec.t -> Vec.t) ->
  track ->
  at:float ->
  solve:(Vec.t option -> 'a) ->
  extract:('a -> Vec.t * bool) ->
  unit ->
  'a
(** Drive one cell of a sweep: [solve] receives the (clamped)
    prediction, [extract] reads the solution vector and a convergence
    flag back out of the result. A warm attempt that raises
    [Robust.Solver_error] or reports non-convergence increments
    [continuation.fallbacks], clears the track and re-solves cold (the
    cold result, converged or not, is returned). Converged cells are
    noted on the track; predicted cells that converge count as
    [continuation.predictor.accepts]. *)

(** {2 Telemetry} *)

type stats = {
  steps : float;  (** cells driven through {!solve_cell} *)
  predictor_accepts : float;
  corrector_iterations : float;
  fallbacks : float;  (** cold re-solves, both scalar and cell level *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
val stats_summary : unit -> string
