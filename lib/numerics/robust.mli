(** Resilient solver layer: [Result]-typed outcomes, fallback chains
    and telemetry for every scalar root the equilibrium pipeline needs.

    The equilibrium pipeline nests numerical fixed points (utilization
    equilibrium inside best responses inside Nash iteration); a bare
    [No_convergence] three layers down would otherwise kill an entire
    Monte-Carlo sweep. This module converts numerical failure into data:

    - {!root} runs a fallback chain Newton -> secant -> auto-bracketed
      Brent -> bisection with outward re-bracketing, with every
      objective evaluation guarded against NaN/Inf poison values;
    - {!root_fused} is the projected fused-Newton solve behind the
      continuation corrector;
    - every attempt, fallback and failure is emitted into the
      process-wide [Obs.Metrics] registry, labelled by solver method
      and by pipeline layer ([ctx], e.g. [layer=utilization]), together
      with per-call latency and objective-evaluation histograms; the
      {!stats} record remains as a compatibility facade aggregating the
      registry back into the historical counter blob. *)

type method_ = Newton | Secant | Brent | Bisection

(** Failure taxonomy: what stopped a particular solver attempt. *)
type failure =
  | Non_finite of { at : float; value : float }
      (** the objective returned NaN/Inf; [at] is the detection site *)
  | No_bracket of { lo : float; hi : float }
  | Budget_exhausted of { evaluations : int }
      (** a {!Fault.Budget} wrapper ran out; terminal for the chain *)
  | Diverged of { residual : float }
  | Out_of_domain of { root : float }
      (** the method converged, but outside the admissible domain *)
  | Not_converged of { detail : string }

type attempt = {
  method_ : method_;
  evaluations : int;  (** objective calls spent by this attempt *)
  failure : failure;
}

type error = {
  attempts : attempt list;  (** every method tried, in order *)
  last_residual : float;  (** |f x| at the last guarded evaluation *)
  bracket_history : (float * float) list;
      (** the initial interval plus any re-brackets attempted *)
}

exception Solver_error of error
(** The typed exception used by exception-style wrappers
    ([System.solve], [Nash.solve]) so legacy callers keep working while
    [Result]-style callers use [*_result] variants. Runtime numerical
    failure is never reported as [Invalid_argument]. *)

val error_message : error -> string
(** One-line rendering of the whole failed chain, for degraded-sample
    tables and logs. *)

type success = {
  result : Rootfind.result;
  method_used : method_;  (** the link of the chain that succeeded *)
  fallbacks : int;  (** how many earlier links failed first *)
}

val root :
  ?tol:float ->
  ?max_iter:int ->
  ?df:(float -> float) ->
  ?x0:float ->
  ?domain:float * float ->
  ?ctx:string ->
  (float -> float) ->
  lo:float ->
  hi:float ->
  (success, error) result
(** Find a root of [f], falling back through Newton (when [df] is
    given; started at [x0], default the midpoint), secant on the
    interval ends, auto-bracketed Brent, and finally bisection after
    aggressive outward re-bracketing (factor 3, 100 expansions). A
    method's answer is accepted only if root and value are finite and
    the root lies in [domain] (default unrestricted). NaN/Inf objective
    values abort the offending method with a typed [Non_finite] failure
    instead of propagating poison. [ctx] names the pipeline layer the
    call serves (e.g. ["utilization"], ["best_response"]); it becomes
    the [layer] label on every metric the call emits (default
    ["unlabeled"]). *)

(** Where a projected fused-Newton solve ended up relative to its box. *)
type bound = Interior | Lower | Upper

type projected = {
  x : float;  (** the KKT point in [\[lo, hi\]] *)
  value : float;  (** the objective there — 0 only for [Interior] *)
  bound : bound;
  iterations : int;
  evaluations : int;  (** fused evaluations spent by this call *)
}

val root_fused :
  ?tol:float ->
  ?max_iter:int ->
  ?halvings:int ->
  ?ctx:string ->
  (float -> float * float) ->
  x0:float ->
  lo:float ->
  hi:float ->
  (projected, error) result
(** Damped Newton on a {e fused} objective returning [(f x, f' x)] from
    one evaluation (an AD pass), projected on [\[lo, hi\]] and aimed at
    the {e decreasing} crossing — the first-order condition of a
    maximum. The answer is either an interior root ([|f x| <= tol]) or
    a box corner whose value pushes outward ([Lower] with [f lo < 0],
    [Upper] with [f hi > 0]) — exactly the KKT cases of a best-response
    marginal. Newton steps are taken only where [f' < 0] (locally
    concave payoff); elsewhere the iterate leaps uphill in the sign
    direction of [f], landing on a KKT corner or establishing the
    directed bracket [(rightmost f > 0, leftmost f < 0)], never on an
    increasing stationary point. Newton steps that fail to shrink [|f|]
    are halved up to [halvings] (default 5) times, then bisected inside
    the bracket; without a bracket a non-improving step is a typed
    [Diverged] failure, and callers fall back to the {!root} chain.
    Counted as a Newton root call in the same [solver.*] metrics as
    {!root} (the fused evaluations land in [solver.evaluations]);
    probes and global faults apply to every fused evaluation. *)

(** {2 Supervision hooks} *)

type probe = unit -> unit

val with_probe : probe -> (unit -> 'a) -> 'a
(** [with_probe p f] runs [f] with [p] invoked before {e every} guarded
    objective evaluation ({!root} and {!root_fused} alike), composed
    after any probe already installed, and uninstalled on exit (normal
    or exceptional). The probe is the sanctioned cooperative-
    cancellation point: [Runner.Watchdog] installs a closure that
    raises its deadline / evaluation-budget exception, which — being
    outside the failure taxonomy above — escapes the fallback chain
    untouched and unwinds to the supervisor. While a probe runs,
    any process-global {!Fault} is also applied to the same
    evaluations, which is what lets the chaos harness reach solvers it
    cannot see.

    Probes are {e domain-local}. [Parallel.Pool] captures the
    submitting domain's probe with {!snapshot_probe} at batch
    submission and re-installs it around every task with
    {!with_probe_snapshot}, so a watchdog guarding a parallel sweep
    still counts each worker-domain evaluation (its own counters must
    therefore be domain-safe — atomics). *)

val snapshot_probe : unit -> probe
(** The calling domain's currently composed probe ([ignore] when none
    is installed). *)

val with_probe_snapshot : probe -> (unit -> 'a) -> 'a
(** Run the thunk with exactly the given probe installed — {e replacing},
    not composing with, the calling domain's current probe — restoring
    the previous one on exit. This is the worker-side half of probe
    propagation: composing would double-fire when the submitting domain
    helps drain its own batch. *)

(** {2 Telemetry} *)

type stats = {
  root_calls : int;
  newton_attempts : int;
  secant_attempts : int;
  brent_attempts : int;
  bisection_attempts : int;
  fallbacks : int;  (** failed links skipped over by successful calls *)
  non_finite : int;
  no_bracket : int;
  budget_exhausted : int;
  diverged : int;
  failures : int;  (** calls whose whole chain failed *)
}

val stats : unit -> stats
(** A snapshot aggregated from the [Obs.Metrics] registry: each field
    sums the corresponding [solver.*] series across every layer
    label. *)

val reset_stats : unit -> unit
(** Zero every [solver.*] series in the registry (in place: cached
    handles keep working). Experiment drivers call this per run so
    printed telemetry is per-experiment, not a process-lifetime
    running total. *)

val stats_summary : unit -> string
(** One paragraph for end-of-run reports. *)
