(** Consistent-hash routing over a static fleet of solve daemons.

    A fleet is N shards — name plus {!Server.address} — placed on a
    hash ring with virtual nodes. {!route} maps a request fingerprint
    to the full preference order (ring successors, each shard once):
    element 0 is the owning shard, the rest are the failover order the
    {!Pool} walks when the owner is down. The ring is static for the
    life of the manifest, so two clients with the same manifest route
    identically and a shard's keyspace is stable across its restarts —
    which is what makes the per-shard cache snapshot worth reloading.

    Each shard carries mutable health ([Up] / [Suspect] / [Down])
    driven by probe frames and observed request outcomes
    ({!mark_ok} / {!mark_failed}); health is advisory routing state
    owned by the client process, not consensus.

    The fleet manifest is a [fleet.v1] JSON file
    ([{"schema":"fleet.v1","shards":[{"name":...,"address":"unix:..."}]}])
    written by [serve-fleet] and consumed by [loadgen --fleet]. *)

type health = Up | Suspect | Down

type shard = {
  name : string;
  address : Server.address;
  mutable health : health;
  mutable failures : int;  (** consecutive failed probes/requests *)
}

type t

val make : ?vnodes:int -> shard list -> (t, string) result
(** Build a ring ([vnodes] ring points per shard, default 64).
    [Error] on an empty fleet or duplicate shard names. *)

val shards : t -> shard list
(** In manifest order. *)

val find : t -> string -> shard option

val route : t -> key:string -> shard list
(** Preference order for [key] (normally a {!Cache.fingerprint}):
    every shard exactly once, owner first. Deterministic in the
    manifest alone — health is not consulted here. *)

val mark_ok : shard -> unit
(** Probe or request succeeded: reset failures, health [Up]. *)

val mark_failed : ?down_after:int -> shard -> unit
(** One more consecutive failure: [Suspect], then [Down] once
    [down_after] (default 2) failures accumulate. *)

(** {2 Manifest} *)

val address_of_string : string -> (Server.address, string) result
(** Parse the {!Server.address_to_string} form
    (["unix:PATH"] or ["tcp:HOST:PORT"]). *)

val save_manifest : path:string -> t -> (unit, string) result
(** Atomic [fleet.v1] write via {!Report.Fsio.write_atomic}. *)

val load_manifest : ?vnodes:int -> path:string -> unit -> (t, string) result
(** All shards start [Up]. *)
