(** Content-addressed equilibrium cache with warm-start seeding.

    Two levels of reuse, both keyed off a canonical binary encoding of
    the market (IEEE-754 bits of every parameter, length-prefixed
    names, a tag per demand and throughput family), hashed with MD5:

    - {b Exact}: the full fingerprint (capacity, price, cap and every
      CP parameter) maps to the solved equilibrium; a repeated request
      is answered without touching the solver.
    - {b Neighbour}: the population fingerprint (CPs only) groups
      markets that differ only in [(price, cap, capacity)]; a miss
      whose population is known seeds {!Subsidization.Nash.solve} from
      the nearest cached equilibrium's subsidy profile instead of the
      zero profile, cutting the best-response sweeps (and therefore
      objective evaluations) for sweep-shaped workloads.

    Bounded LRU: at most [capacity] entries, least-recently-used
    evicted. Hit/miss/warm counters live in the [service.cache.*]
    metrics. Not thread-safe by design: the server touches it only
    from the event-loop domain (solves on pool workers receive the
    warm-start profile by value). *)

type t

val create : capacity:int -> t
(** Raises nothing; a non-positive capacity is clamped to 1. *)

val fingerprint : Proto.market -> string
(** Canonical content address (hex digest) of the whole market. Two
    markets share it iff they are bit-identical in every parameter;
    every demand and throughput family is covered. *)

val population_fingerprint : Proto.market -> string
(** Content address of the CP population alone (ignores price, cap and
    capacity). *)

val find : t -> fingerprint:string -> Proto.solved option
(** Exact lookup; refreshes recency and counts a hit or miss. *)

val warm_start : t -> Proto.market -> float array option
(** The subsidy profile of the cached equilibrium nearest to this
    market among same-population entries (normalized Euclidean
    distance over price/cap/capacity). [None] when no same-population
    entry exists. *)

val store : t -> market:Proto.market -> fingerprint:string -> Proto.solved -> unit
(** Insert (or refresh) the solved equilibrium, evicting the LRU entry
    beyond capacity. Degraded results are not stored. *)

val size : t -> int

type stats = { hits : int; misses : int; warm_seeds : int; evictions : int }

val stats : t -> stats

(** {2 Snapshot persistence}

    The whole cache as one [cache.v2] JSON document — every entry's
    scalar knobs, population fingerprint, recency tick and solved
    payload (wire shape) — so a restarted daemon warm-starts its
    keyspace instead of re-solving it. Snapshot-then-replay: the
    server loads the snapshot {e before} journal replay, so replayed
    requests hit the reloaded entries. *)

val save : t -> path:string -> (int, string) result
(** Atomic, durable ({!Report.Fsio.write_atomic}) write; returns the
    number of entries written and zeroes the
    [service.cache.snapshot_age_s] gauge. *)

type loaded = { entries : int; age_s : float }

val load_into : t -> path:string -> (loaded, string) result
(** Merge a snapshot into this cache, preserving the snapshot's
    relative LRU order (oldest re-inserted first) and evicting beyond
    capacity. A missing file loads zero entries; a corrupt one, or one
    of another schema (a [cache.v1] file holds keys of the older text
    rendering), is an [Error] (the caller logs and starts cold). Sets
    the snapshot-age gauge from the document's save timestamp. *)
