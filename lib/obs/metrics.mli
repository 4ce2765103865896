(** Process-wide registry of named counters, gauges and log-scale
    histograms, each optionally carrying labels such as
    [("layer", "utilization"); ("method", "brent")].

    Handles are cheap: registering the same name + label set twice
    (label order irrelevant) returns the {e same} underlying series, so
    hot paths create their handles once and pay a single in-place update
    per event. Histograms bucket geometrically (24 buckets per decade
    over [1e-9, 1e9)), which keeps percentile estimates within ~5%
    relative error at any scale — enough to localize a regression
    without storing samples.

    Counters and histograms are sharded per domain: each domain writes
    its own flat float block of a series, created on that domain's first
    write to it, so {!incr} and {!observe} take no lock and allocate
    nothing, and handles may be shared freely across domains (pool
    workers increment the same series the main domain reads). Readers —
    {!counter_value}, {!percentile}, {!summarize}, {!snapshot},
    {!sum_counters}, {!sum_histograms} — merge every domain's block
    under the registry lock, and {!reset} zeroes every domain's block.
    When a domain exits, its blocks are folded into a retired shard, so
    its counts outlive it.

    Totals are exact once the writers are quiescent, for example after
    [Parallel.Pool.run_tasks] returns. A read that runs concurrently
    with writers sees each domain's block at some instant, not one cut
    across all domains; an update racing a {!reset} may land on either
    side of it. Gauges, registration and reads stay serialized behind
    the one lock (last write wins). *)

type labels = (string * string) list
(** Label sets are normalized (sorted by key) on registration. *)

type counter
type gauge
type histogram

val counter : ?labels:labels -> string -> counter
(** Find-or-create. Raises [Invalid_argument] if the series exists with
    a different kind. *)

val incr : ?by:float -> counter -> unit
(** Add [by] (default 1); negative increments are a caller bug but are
    not checked on the hot path. *)

val counter_value : counter -> float

val gauge : ?labels:labels -> string -> gauge
val set : gauge -> float -> unit

val histogram : ?labels:labels -> string -> histogram

val observe : histogram -> float -> unit
(** Record one sample. Non-positive and sub-1e-9 samples land in an
    underflow bucket that percentiles resolve to the recorded minimum. *)

val percentile : histogram -> float -> float
(** [percentile h p] for [p] in [0, 100]; [nan] on an empty histogram.
    The answer is geometrically interpolated inside the bucket holding
    the target rank and clamped to the observed [min]/[max] — so a
    point mass (even one sitting exactly on a decade boundary such as
    [1.0] or [1e-3]) reports its own value exactly. *)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  buckets : (float * int) list;  (** (geometric bucket center, count), non-empty buckets only *)
  buckets_le : (float * int) list;
      (** (bucket upper edge, cumulative count incl. underflow), only at
          non-empty buckets; the Prometheus [_bucket{le=...}] shape *)
}

val summarize : histogram -> summary

(** {2 Reading the registry} *)

type read = Counter of float | Gauge of float | Histogram of summary

val snapshot : ?prefix:string -> unit -> (string * labels * read) list
(** Every series whose name starts with [prefix] (default all), sorted
    by name then labels. *)

val sum_counters : ?where:(labels -> bool) -> string -> float
(** Sum of every counter series with this exact name whose labels
    satisfy [where] (default all). *)

val sum_histograms : ?where:(labels -> bool) -> string -> float
(** Sum of the [sum] fields of matching histogram series. *)

val reset : ?prefix:string -> unit -> unit
(** Zero every matching series {e in place}: cached handles stay
    registered and keep working, which is what lets experiment drivers
    scope telemetry per run. *)

val label : labels -> string -> string option
(** Lookup one label value. *)

val labels_to_string : labels -> string
(** ["k1=v1,k2=v2"]; [""] for the empty set. *)
