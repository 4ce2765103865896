(** Render the registry and the span buffer as JSON / CSV-able tables.

    All JSON goes through {!Json}; [write_json ~path:"-"] prints the
    document as a single line on stdout (deliberately last-line-parsable
    so shell pipelines can [tail -n 1 | json-parse] after the human
    output). *)

val metrics_json : ?prefix:string -> unit -> Json.t
(** Schema [obs.metrics.v1]: an array of series, each with name,
    labels, kind and either [value] (counter/gauge) or
    count/sum/min/max/p50/p90/p99 plus non-empty buckets (histogram). *)

val series_field : Json.t -> name:string -> string -> float option
(** [series_field doc ~name field] reads one numeric field of the first
    series called [name] in an [obs.metrics.v1] document: ["value"] of
    a counter or gauge, ["count"], ["p99"], ... of a histogram. [None]
    when the series or the field is absent. *)

val trace_json : unit -> Json.t
(** Chrome [trace_event] JSON: one complete ("ph":"X") event per span,
    timestamps in microseconds relative to the first span, parent links
    and attributes under [args]. *)

val telemetry_table : unit -> Report.Table.t
(** The end-of-run solver table: one row per solver layer with call and
    attempt counts, fallback rate, failure count, total objective
    evaluations, and p50/p99 solve latency. Empty when no solver ran. *)

val write_json : path:string -> Json.t -> unit
(** Write compact JSON (with trailing newline) to [path], creating
    parent directories; [path = "-"] appends a single line to stdout.
    The write is atomic ({!Report.Fsio.write_atomic}); an I/O failure
    increments the [obs.export.write_errors] counter and raises
    [Sys_error]. *)
