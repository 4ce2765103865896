(** Leveled structured logging for library and binary code.

    One process-wide logger: call sites tag each event with a module
    name ([~m]) and a severity, and the logger filters by a default
    level plus optional per-module overrides, then renders to a sink
    (human-readable stderr by default, JSONL for machines, or a custom
    callback for tests).

    Repeated messages can be rate-limited: with a minimum emit
    interval configured, events sharing (module, level, message) are
    coalesced and later flushed with a repeat count.  The idiom is a
    {e constant} message string with the varying parts in [?fields].

    All state lives behind one mutex; emission is serialized so
    concurrent domains never interleave half-lines.  Custom sinks run
    under that lock and therefore must not call back into [Log]. *)

type level = Debug | Info | Warn | Error

val level_of_name : string -> (level, string) result
(** Case-insensitive parse; accepts ["warning"] for [Warn]. *)

type event = {
  t_s : float;  (** wall-clock seconds since the epoch *)
  level : level;
  module_ : string;
  msg : string;
  fields : (string * string) list;
  repeats : int;  (** earlier duplicates coalesced into this event *)
}

type sink =
  | Human of out_channel  (** ["HH:MM:SS.mmm LEVEL module: msg (k=v, ...)"] *)
  | Jsonl of out_channel  (** one compact JSON object per line *)
  | Custom of (event -> unit)
      (** runs under the logger lock — must not log *)

val set_sink : sink -> unit
(** Default: [Human stderr]. *)

val set_level : level -> unit
(** Default threshold for modules without an override. Default: [Info]. *)

val set_module_level : string -> level -> unit
(** Override the threshold for one [~m] value. *)

val set_rate_limit : ?min_interval_s:float -> unit -> unit
(** With [min_interval_s > 0], at most one event per (module, level,
    message) key is emitted per interval; suppressed duplicates are
    counted and reported in [repeats] on the next emit or on {!drain}.
    [0.] (the default) disables rate limiting.  Resets pending
    suppression state. *)

val enabled : m:string -> level -> bool
(** Would an event at this level for this module be emitted? *)

val debug : ?fields:(string * string) list -> m:string -> string -> unit
val info : ?fields:(string * string) list -> m:string -> string -> unit
val warn : ?fields:(string * string) list -> m:string -> string -> unit
val error : ?fields:(string * string) list -> m:string -> string -> unit

val drain : unit -> unit
(** Flush coalesced repeats now (each pending key emits its last event
    with the suppressed count). Call before exit when rate limiting is
    on. *)

val render_human : event -> string
val render_jsonl : event -> string

val reset : unit -> unit
(** Restore defaults (Human stderr, Info, no rate limit, no module
    overrides). Intended for tests. *)
