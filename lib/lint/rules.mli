(** The sublint rule set: the solver-layer invariants from DESIGN §8/§9
    expressed as syntactic checks over the Parsetree.

    Each rule carries a stable id (the baseline key), a severity, a
    one-line doc string and a path scope: the directory prefixes it
    applies to plus an explicit allowlist of sanctioned files (e.g.
    [lib/obs/clock.ml] is the one place allowed to call
    [Unix.gettimeofday]). Scoping is purely prefix-based on
    repo-relative '/'-separated paths, so the same rule set gives the
    same answer on every machine. *)

type scope = {
  applies_to : string list;
      (** path prefixes the rule covers; never empty *)
  exempt : string list;
      (** allowlisted path prefixes (sanctioned implementation sites) *)
}

type t = {
  id : string;
  severity : Finding.severity;
  doc : string;
  scope : scope;
  baselinable : bool;
      (** count-ratchet rules can be grandfathered in [lint.baseline];
          the semantic/structural rules (EXN-ESCAPE, SYNC-DISCIPLINE,
          PARSE-ERROR, UNUSED-SUPPRESSION) cannot — violations are
          fixed or explicitly suppressed with a reason, never
          baselined ([--update-baseline] filters them out) *)
}

val all : t list
(** Every rule, in reporting order: the syntactic set NO-BARE-RAISE,
    NO-SWALLOW, NO-RAW-CLOCK, NO-LIB-PRINT, NO-FLOAT-EQ, NO-OBJ-MAGIC,
    NO-UNSYNC-GLOBAL, NO-ADHOC-LOG, MLI-REQUIRED, then the semantic
    set EXN-ESCAPE and SYNC-DISCIPLINE (DESIGN §15, logic in
    {!Semantic_rules}) and the driver-level PARSE-ERROR and
    UNUSED-SUPPRESSION.

    NO-ADHOC-LOG is NO-LIB-PRINT's stderr twin: [prerr_*],
    [Printf.eprintf]/[Format.eprintf] and any mention of the [stderr]
    channel in [lib/] (outside [lib/obs/], where the log sinks live)
    bypass [Obs.Log] — its levels, sinks and rate limits — and are
    flagged.

    NO-UNSYNC-GLOBAL guards the parallel layer: a top-level [ref],
    [Hashtbl.create], [Queue]/[Stack]/[Buffer] or [Array.make] in
    [lib/] is process-global state that pool worker domains may reach
    concurrently. Such a binding must either carry a
    [[@@sync "how it is synchronized"]] note (checked syntactically,
    with a string payload) or be restructured around the inherently
    domain-safe constructions ([Atomic], [Mutex], [Condition],
    [Domain.DLS]), which are never flagged. [Array.init] and
    array/record literals are also exempt: they are the repo's
    constant-table idiom. *)

val find : string -> t option
(** Look a rule up by id. *)

val applies : t -> string -> bool
(** Does the rule cover this repo-relative path? True when some
    [applies_to] prefix matches and no [exempt] prefix does. *)

val check_structure : file:string -> Parsetree.structure -> Finding.t list
(** Run every expression-level rule whose scope covers [file] over a
    parsed implementation; findings come back in source order. *)

val mli_required : files:string list -> Finding.t list
(** The file-level MLI-REQUIRED rule: one finding per in-scope [.ml]
    path in [files] with no sibling [.mli] in [files]. *)
