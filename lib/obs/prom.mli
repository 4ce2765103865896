(** Prometheus text exposition (format 0.0.4) of the {!Metrics}
    registry, so any standard scraper can consume the daemon's
    telemetry.

    Names are sanitized to [[a-zA-Z0-9_:]] (dots become underscores:
    ["service.solve.latency_s"] exposes as
    [service_solve_latency_s]).  Label values are escaped per the spec
    (backslash, double quote, newline).  Counters and gauges render one
    sample each;
    histograms render cumulative [_bucket{le="..."}] samples at each
    non-empty log-scale bucket's upper edge plus the mandatory
    [le="+Inf"], [_sum] and [_count].  A [# TYPE] comment precedes each
    distinct metric name.

    Rendering is pure — no I/O and no registry mutation. *)

val expose : ?prefix:string -> unit -> string
(** Render every registry series whose name starts with [prefix]
    (default: the whole registry). *)

val sanitize_name : string -> string
val escape_label_value : string -> string
