(** Failing-over client pool over a {!Shard} fleet.

    One blocking solve call against the fleet: route the market's
    fingerprint to its preference order, try the owning shard with
    bounded jittered retries ({!Runner.Supervisor.backoff_delay}), and
    fail over down the ring on transport failure or shed. A per-shard
    circuit breaker (closed -> open after K consecutive failures ->
    half-open probe -> closed) turns a dead shard into a skipped one:
    while a breaker is open the pool spends no syscalls on that shard,
    and after [breaker_cooldown_s] exactly one request (or {!probe}
    ping) is let through as the recovery probe.

    Transport trouble is {!Client.error}; this layer adds the
    request-level outcomes ([Shed], [Rejected], [Degraded]) so callers
    see one typed taxonomy for everything that can go wrong.

    Single-domain by design, like the daemon's loop: one pool is owned
    by one caller; connections are opened lazily and replaced on
    failure. *)

type config = {
  retry : Runner.Supervisor.retry;  (** per-shard attempt schedule *)
  breaker_threshold : int;  (** consecutive failures that trip *)
  breaker_cooldown_s : float;  (** open -> half-open delay *)
  timeout_s : float;  (** per-attempt response deadline *)
  deadline_s : float option;
      (** overall per-request wall-clock budget across every retry and
          failover; [None] bounds it by attempts * timeout alone *)
  seed : int64;  (** backoff-jitter stream *)
}

val default_config : config
(** 2 attempts per shard with jittered 25ms backoff, trip after 3,
    0.5s cooldown, 10s per-attempt timeout, no overall deadline. *)

type error =
  | Transport of Client.error
      (** last transport failure after every shard was tried *)
  | Shed of { depth : int; capacity : int }  (** every live shard shed *)
  | Rejected of Proto.reject_reason
  | Degraded of string
  | No_shard_available  (** every breaker open, nothing tried *)

val error_to_string : error -> string

type t

val create : ?netfault:Netfault.t -> ?config:config -> Shard.t -> t

type answer = {
  solved : Proto.solved;
  shard : string;  (** the shard that answered *)
  attempts : int;  (** send attempts across all shards, >= 1 *)
  failovers : int;  (** shards given up on before the answer *)
}

val solve :
  t -> ?id:string -> ?params:Proto.solve_params -> Proto.market ->
  (answer, error) result
(** [Degraded] and [Rejected] answers are returned, not failed over:
    the shard is healthy, the request itself is the problem. [Shed]
    fails over (another replica may have queue room); transport errors
    retry on the same shard, then fail over. *)

val probe : t -> unit
(** Ping every shard that is not (breaker closed and health up) —
    the explicit half-open recovery path when no traffic routes to a
    recovering shard. Cheap no-op for a healthy fleet. *)

val close : t -> unit

(** {2 Introspection} *)

type shard_stats = {
  name : string;
  health : Shard.health;
  breaker : string;  (** ["closed"], ["open"] or ["half-open"] *)
  requests : int;  (** answers this shard produced *)
  failures : int;  (** transport failures charged to it *)
  trips : int;  (** times its breaker opened *)
}

type stats = { failovers : int; retries : int; shards : shard_stats list }

val stats : t -> stats
(** Also continuously exported as [service.pool.*] metrics
    (failovers/retries counters, per-shard breaker-state gauge and
    trip counters) through the ordinary Prometheus path. *)
