(** Blocking client for the solve daemon's wire protocol.

    One connection, one {!Proto} frame per line, reads driven by a
    [select] timeout so a wedged (or killed) daemon surfaces as a typed
    {!error} instead of a hang. Used by the [loadgen] CLI, the fleet
    {!Pool}, the service tests and the soak harnesses.

    Transport failures are a typed taxonomy, not strings: the {!Pool}
    decides retry/failover/breaker policy by matching on them, and
    {!error_to_string} renders them for CLI display. An optional
    {!Netfault} plan injects deterministic connection drops, torn
    writes, read delays and blackholes at this layer. *)

type t

type error =
  | Timeout of { waited_s : float }
      (** no complete response frame within the read deadline *)
  | Conn_refused of string  (** connect failed; the detail string *)
  | Conn_closed  (** EOF, [EPIPE] or [ECONNRESET] from the daemon *)
  | Torn_frame of string
      (** an unparsable response frame, or an injected torn write *)
  | Io of string  (** any other syscall failure *)

val error_to_string : error -> string

val connect : ?netfault:Netfault.t -> Server.address -> (t, error) result
(** The fault plan, when given, stays attached to the connection for
    its lifetime. Connecting also installs [Signal_ignore] for
    [SIGPIPE] process-wide: a failing-over client writes into dead
    sockets as a matter of course, and those writes must surface as
    [Conn_closed], not kill the process. *)

val is_alive : t -> bool
(** [false] once the transport has failed (or a torn write was
    injected); subsequent sends fail fast with [Conn_closed]. *)

val close : t -> unit

val send : t -> Proto.request -> (unit, error) result
(** Writes the whole frame, looping over partial writes and [EINTR]. *)

val read_response : ?timeout_s:float -> t -> (Proto.response, error) result
(** Next response frame (default timeout 30s). *)

val call : ?timeout_s:float -> t -> Proto.request -> (Proto.response, error) result
(** [send] then [read_response] — the one-outstanding-request idiom.
    Pipelined callers use [send]/[read_response] directly. *)
