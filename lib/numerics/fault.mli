(** Fault injection for scalar objectives.

    Wraps a [float -> float] objective so tests can prove that every
    fallback path of {!Robust} actually fires: poison values, jump
    discontinuities, hard evaluation budgets and flat plateaus are the
    failure shapes that nested equilibrium solvers meet near degenerate
    market parameters. *)

exception Budget_exceeded of int
(** Raised by a [Budget]-wrapped objective once the evaluation budget is
    spent. {!Robust} converts it into a typed [Budget_exhausted]
    error instead of letting it escape. *)

type mode =
  | Nan_region of { lo : float; hi : float }
      (** return NaN whenever the argument lies in [\[lo, hi\]] *)
  | Nan_after of int  (** return NaN from evaluation [n+1] onward *)
  | Spike of { at : float; width : float; height : float }
      (** add [height] to the value within [width] of [at] *)
  | Budget of int  (** raise {!Budget_exceeded} after [n] evaluations *)
  | Plateau of { lo : float; hi : float; level : float }
      (** return the constant [level] inside [\[lo, hi\]] (zero
          derivative: defeats Newton and secant steps) *)

type injected = {
  f : float -> float;  (** the faulty objective *)
  evaluations : unit -> int;  (** total calls so far *)
  triggered : unit -> int;  (** calls on which the fault fired *)
}

val inject : mode -> (float -> float) -> injected

(** {2 Process-global injection}

    The chaos harness ([Runner.Chaos]) needs to disturb experiments it
    cannot reach inside of: a global fault, when installed, is applied
    by {!Robust} to {e every} guarded objective evaluation in the
    process, with one shared counter pair (so [Nan_after n] means n
    evaluations across the whole sweep, whichever solver spends
    them).

    The installation itself is {e domain-local}: a [Parallel.Pool]
    worker injects nothing until the submitting domain's installation
    is propagated to it with {!snapshot}/{!with_snapshot} (the pool
    does this for every task). The counters inside one installation
    are atomics shared by every domain running under that snapshot, so
    budgets and totals stay process-wide. *)

val set_global : mode option -> unit
(** Install ([Some]) or clear ([None]) the global fault in the calling
    domain. Installing resets the global counters. *)

type snapshot
(** The calling domain's current installation (possibly none), carrying
    the {e shared} counters — not a copy of their values. *)

val snapshot : unit -> snapshot

val with_snapshot : snapshot -> (unit -> 'a) -> 'a
(** Run the thunk with the given installation active in the calling
    domain, restoring the previous one on exit. Evaluations made under
    it charge the originating installation's counters. *)

val global_mode : unit -> mode option

val global_wrap : (float -> float) -> float -> float
(** [global_wrap f x]: evaluate [f x] through the installed global
    fault; identity (and counter-free) when none is installed. Called
    by {!Robust} on its guarded-evaluation paths. *)

val global_evaluations : unit -> int
(** Evaluations made through the installed global fault (0 when none). *)

val global_triggered : unit -> int
(** How many of them were corrupted. *)
