(** Wire protocol of the solve daemon.

    Framing is newline-delimited compact JSON: one request or response
    document per line, no raw newlines inside a frame ({!Obs.Json}
    escapes them), bounded by a per-connection frame-size limit so a
    hostile or buggy client cannot grow server memory without bound.
    Every decoding failure is a typed {!reject_reason} that the server
    answers and survives — malformed input is data, never an
    exception.

    A market travels as {!Experiments.Market_io} JSON (the same
    columns and domain rules as the [--market] CSV), so anything the
    CLI can load from disk can be solved over the socket. *)

type market = {
  capacity : float;  (** ISP capacity [mu > 0] *)
  price : float;  (** ISP usage price [p >= 0] *)
  cap : float;  (** subsidy policy cap [q >= 0] *)
  cps : Econ.Cp.t array;
}

type solve_params = {
  deadline_s : float option;  (** per-request watchdog deadline *)
  max_evals : int option;  (** per-request evaluation budget *)
}

val no_params : solve_params

type request =
  | Solve of { id : string; market : market; params : solve_params }
  | Metrics of { prefix : string }
      (** the /metrics-style query: a registry snapshot, optionally
          name-filtered *)
  | Metrics_prom of { prefix : string }
      (** same registry cut, rendered as Prometheus text exposition
          ({!Obs.Prom}); wire type ["metrics_prom"] *)
  | Chaos of { mode : Numerics.Fault.mode option }
      (** install ([Some]) or clear ([None]) the process-global fault —
          the soak harness's mid-flight injection lever; the server
          rejects it unless started with chaos enabled *)
  | Ping
  | Shutdown  (** graceful drain, same as SIGTERM *)

type reject_reason =
  | Malformed_frame of string  (** unparsable JSON or bad shape *)
  | Oversized_frame of { bytes : int; limit : int }
  | Bad_market of string  (** Market_io/domain validation failure *)
  | Unsupported of string  (** unknown request type *)
  | Chaos_disabled

val reject_to_string : reject_reason -> string

type cache_source =
  | Hit  (** answered from the equilibrium cache, no solve *)
  | Warm  (** solved, seeded from a cached neighbour's equilibrium *)
  | Cold  (** solved from the zero profile *)

type solved = {
  subsidies : float array;
  phi : float;
  aggregate : float;
  revenue : float;  (** [price * aggregate] *)
  converged : bool;
  sweeps : int;
  kkt_residual : float;
  cache : cache_source;
  solve_s : float;  (** server-side wall clock for this answer *)
}

type response =
  | Solved of { id : string; result : solved }
  | Degraded of { id : string; reason : string }
      (** the solver failed in a contained, typed way (fault injection,
          deadline, budget, no convergence); the request is answered,
          not dropped *)
  | Shed of { id : string; depth : int; capacity : int }
      (** admission control refused the request: queue full *)
  | Rejected of { id : string option; reason : reject_reason }
  | Metrics_snapshot of Obs.Json.t
  | Prom_text of string
      (** Prometheus text exposition, newline-escaped inside the JSON
          frame; wire type ["metrics-prom"] *)
  | Chaos_ack of { mode : string }
  | Pong
  | Bye  (** acknowledges [Shutdown]; the connection closes after it *)

val default_max_frame_bytes : int
(** 1 MiB. *)

(** {2 Chaos mode names}

    The wire names are {!Runner.Chaos.default_scenarios} names plus
    ["off"]. *)

val chaos_mode_name : Numerics.Fault.mode -> string
val chaos_mode_of_name : string -> (Numerics.Fault.mode option, string) result

(** {2 Markets} *)

(** {2 Solved results}

    The response payload codec, exposed on its own so the equilibrium
    cache can snapshot entries to disk in the exact wire shape. *)

val solved_to_json : solved -> Obs.Json.t
val solved_of_json : Obs.Json.t -> (solved, string) result

(** {2 Framing}

    [*_to_line] renders one compact JSON frame {e without} the trailing
    newline; the transport appends it. [*_of_line] parses one frame. *)

val request_to_line : request -> string
val request_of_line : ?max_frame_bytes:int -> string -> (request, reject_reason) result
val response_to_line : response -> string
val response_of_line : string -> (response, string) result
