(** Crash-safe request journal (JSONL, run.v1 style).

    The daemon appends one [received] event when a solve request is
    admitted and one [acked] event {e before} the response frame is
    written to the socket. On restart, {!recover} replays the file:
    requests with a [received] but no [acked] are re-solved and
    re-answered; requests already acked are never answered twice —
    ack-before-send makes recovery at-most-once per request even
    across a SIGKILL between the journal write and the socket write.

    The file is append-only newline-delimited JSON. A crash can tear
    the final line; {!recover} skips unparsable lines with a warning
    instead of failing the restart (the torn event is at worst one
    un-acked request, which replay solves again). [?durable] appends
    fsync after every event — the crash-safety contract for real
    deployments; tests leave it off for speed. *)

type t

type kind = Solved | Degraded | Shed

val open_ : ?durable:bool -> path:string -> unit -> (t, string) result
(** Open for appending, creating the file (and syncing its directory
    entry when [durable]) if needed. *)

val record_received :
  t -> seq:int -> id:string -> fingerprint:string -> request_line:string ->
  (unit, string) result
(** [request_line] is the raw wire frame, journaled verbatim so replay
    re-decodes with the same {!Proto} code path. *)

val record_acked : t -> seq:int -> id:string -> kind:kind -> (unit, string) result

val size_bytes : t -> int
(** Current file size (tracked across appends and compactions; also
    the [service.journal.size_bytes] gauge). *)

type compaction = {
  kept : int;  (** pending received lines carried over *)
  dropped : int;  (** acked, superseded and torn lines removed *)
  bytes_before : int;
  bytes_after : int;
}

val compact : t -> (compaction, string) result
(** Rewrite the journal as a seq-floor marker plus the still-pending
    received lines, atomically ({!Report.Fsio.write_atomic}, durable
    when the journal is). Acked entries vanish but their sequence
    numbers are never reused — the marker keeps [next_seq] monotone,
    which is what preserves at-most-once acks across compaction plus
    crash. The append channel is reopened on the new file. *)

val close : t -> unit

type pending = { seq : int; id : string; request_line : string }

type recovered = {
  pending : pending list;  (** received, never acked — in seq order *)
  acked : (int * string * kind) list;  (** (seq, id, kind), in seq order *)
  next_seq : int;  (** one past the largest seq seen *)
  torn_lines : int;  (** lines skipped as unparsable *)
}

val recover :
  ?on_warning:(string -> unit) -> path:string -> unit -> (recovered, string) result
(** A missing file recovers to the empty state. Each torn or
    unparsable line is reported through [on_warning]; the default
    routes to {!Obs.Log.warn} (module ["journal"], the line detail in
    a field). *)
