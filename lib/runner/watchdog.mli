(** Cooperative wall-clock deadlines and evaluation budgets.

    The paper's equilibrium computations are fixed-point and
    best-response iterations with no a-priori iteration bound
    (Definition 1 / Theorem 3), so a pathological market point can in
    principle iterate forever. The watchdog bounds them {e without}
    threads or signals: it installs a probe via
    {!Numerics.Robust.with_probe} that runs before every guarded
    objective evaluation, reads {!Obs.Clock}, and raises a typed
    exception the moment the limit is crossed. Because every
    experiment's hot loop bottoms out in [Robust], the probe is
    checked exactly where the time is spent.

    The exceptions are deliberately outside the solver failure
    taxonomy: [Robust]'s fallback chains let them escape, so they
    unwind straight to the supervisor that set the limit. *)

exception Deadline_exceeded of { elapsed_s : float; limit_s : float }
exception Eval_budget_exceeded of { evaluations : int; limit : int }

type limits = {
  deadline_s : float option;  (** wall-clock allowance per guarded run *)
  max_evals : int option;  (** guarded objective-evaluation allowance *)
}

val no_limits : limits

val limits : ?deadline_s:float -> ?max_evals:int -> unit -> limits
(** Raises [Invalid_argument] for a non-positive or non-finite
    deadline, or a non-positive budget. *)

val guard : limits -> (unit -> 'a) -> 'a
(** Run the thunk under the limits: the elapsed clock starts now, the
    evaluation counter starts at zero, and the probe is uninstalled on
    exit however the thunk ends. With {!no_limits} the thunk runs
    untouched. Nested guards compose (both probes keep firing). *)
