(** Forked solve daemons: the one place that forks, awaits, reaps and
    respawns {!Server.run} processes.

    A fleet is a list of daemon configs, shard [i] being the [i]-th.
    {!start} forks one child per config; each child runs
    {!Server.run} and exits [0] on a clean drain or
    {!startup_failure} when the server could not start (bind error,
    unrecoverable journal). {!supervise} is the [serve-fleet] loop:
    it reaps children, forwards SIGTERM/SIGINT to every live shard,
    respawns crashed shards on their own config and retires shards
    that failed at startup, since a fresh fork would fail the same
    way.

    Fork before the calling process creates a domain pool: domains do
    not survive [fork], so each child sizes its own. *)

val layout : dir:string -> shards:int -> Server.config -> Server.config list
(** Per-shard configs under [dir]: shard [i] listens on
    [dir/s<i>.sock], journals to [dir/s<i>.journal], snapshots its
    cache to [dir/s<i>.snapshot] and seeds its Rng with
    [base.seed + 1000 i]; every other field comes from [base]. *)

val ring : Server.config list -> (Shard.t, string) result
(** The {!Shard} ring over the configs' addresses: shard [i] named
    ["s<i>"], every shard [Up]. *)

type t

val startup_failure : int
(** Exit code of a child whose {!Server.run} returned [Error]. *)

val start : ?jobs:int -> Server.config list -> t
(** Fork one child per config. [jobs], when given, is the child's
    {!Parallel.Runtime.set_jobs}; otherwise the child resolves its
    pool size as any process does. *)

val signal : t -> int -> int -> unit
(** [signal t i s] sends signal [s] to shard [i]'s live process, if
    any. *)

val wait : t -> int -> Unix.process_status option
(** Block until shard [i] exits and reap it; [None] when it has no
    live process. An exit {!publish} already reaped is returned once. *)

val respawn : t -> int -> unit
(** Fork shard [i] again on its own config (same socket, journal,
    snapshot and seed) after it has been reaped. *)

val await : Server.address -> (Client.t, string) result
(** Connect to [address] and ping it, retrying every 25 ms until the
    daemon answers or 10 s pass. The answered connection is returned
    open. *)

val publish : manifest:string -> t -> (int, string) result
(** {!await} every shard (each failure is logged), then write the
    [fleet.v1] manifest of their {!ring} to [manifest], so a client
    that reads it can connect. [Ok n]: [n] shards answered. A shard
    that did not stays in the manifest: the ring is static. Between
    connection attempts the shard's process is polled without
    blocking, so a shard that has exited (a startup failure) is given
    up at once instead of after the 10 s timeout; its reaped exit is
    kept for {!supervise}, which handles it as any other exit. *)

type event =
  | Spawned of { shard : int; pid : int }
  | Exited of { shard : int; status : Unix.process_status; restarting : bool }

type summary = {
  unexpected : int;  (** exits other than status 0 before a stop signal *)
  retired : int;  (** of those, shards that exited {!startup_failure} *)
  stopped : bool;  (** a SIGTERM or SIGINT was forwarded *)
}

val supervise :
  ?on_event:(event -> unit) -> ?ready:(unit -> unit) -> restart:bool -> t -> summary
(** Reap shards until none is left. SIGTERM and SIGINT are forwarded
    to every live shard for the duration of the call; after one, no
    shard is respawned. An unexpected exit is respawned when [restart]
    holds, unless its status is {!startup_failure}: that shard is
    retired. Every event is logged to {!Obs.Log}; [on_event] also
    hears it: [Spawned] for every live shard first, then each exit and
    respawn. [ready] runs once, after the signal handlers are in place
    and before the first reap: the place to {!publish} the fleet. Exits
    that [publish] reaped are handled right after [ready] returns. *)
