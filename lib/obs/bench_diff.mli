(** Differ for bench.v1 performance records.

    Compares the per-figure measurements of two bench records
    ([seconds], [root_calls], [objective_evaluations]) under per-metric
    tolerance bands, so `bench --compare OLD.json` — and the CI job
    built on it — can fail a build that made the solver slower.

    Seconds fail only upwards: a figure getting {e faster} never
    fails.  Solver work counts are deterministic, so their band is
    two-sided: a count above it is a regression, and a count below it
    means the baseline is stale (the code does less work than the
    record says) and fails too, until the baseline is regenerated.
    Figures present in one record only are reported but are not
    regressions — CI may bench a subset. *)

type tolerance = {
  seconds_rel : float;  (** relative slack on wall-clock seconds *)
  seconds_abs : float;  (** absolute slack (s), floors noise on fast figures *)
  counts_rel : float;  (** relative slack on solver work counts *)
  counts_abs : float;  (** absolute slack (calls) *)
}

val default_tolerance : tolerance
(** Seconds: 50% + 0.1s (wall-clock is noisy); counts: 2% + 64 calls
    (deterministic, so tight).  [allowed = baseline*(1+rel) + abs];
    for counts also [floor = baseline*(1-rel) - abs]. *)

type verdict = {
  figure : string;
  metric : string;
  baseline : float;
  current : float;
  floor : float;  (** lowest passing value; [neg_infinity] for seconds *)
  allowed : float;  (** highest passing value *)
  regressed : bool;  (** [current > allowed] *)
  stale : bool;  (** [current < floor]: the baseline needs regenerating *)
}

type report = {
  verdicts : verdict list;
  compared : string list;  (** figure ids present in both records *)
  only_in_baseline : string list;
  only_in_current : string list;
}

val diff :
  ?tolerance:tolerance ->
  baseline:Json.t ->
  current:Json.t ->
  unit ->
  (report, string) result
(** [Error] when either document lacks a ["figures"] array.  Metrics
    missing or non-finite on either side are skipped, not failed. *)

val regressions : report -> verdict list

val stale : report -> verdict list
(** Counts that fell below their band. *)

val ok : report -> bool
(** No regression and no stale count. *)

val load_file : path:string -> (Json.t, string) result
(** Read and parse a record; [Error] carries the I/O or parse message. *)

val scale_seconds : Json.t -> by:(string * float) list -> Json.t
(** Multiply the recorded [seconds] of the named figures — the
    `--inject-slowdown` self-test that proves the gate can fire. *)

val table : report -> Report.Table.t
(** One row per verdict: baseline, current, ratio, allowed band,
    verdict. *)

val summary : report -> string
(** One line: figure/check/regression counts, any stale counts, plus
    any id skew. *)
