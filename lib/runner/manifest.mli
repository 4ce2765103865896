(** The persistent run manifest ([run.v1]).

    One JSON document per sweep recording, for every experiment, how it
    ended: completed (with shape-check and degraded-sample counts),
    failed (with the contained exception and backtrace), timed out, or
    out of evaluation budget. The manifest is rewritten atomically
    after {e each} experiment ({!Report.Fsio.write_atomic}), so a crash
    at any point leaves a loadable document describing exactly the
    prefix that ran — which is what makes [--resume] sound.

    Schema [run.v1]:
    {v
    { "schema": "run.v1",
      "created_unix": <float>, "updated_unix": <float>,
      "entries": [
        { "id": "fig4",
          "status": "completed" | "failed" | "timed_out" | "out_of_budget",
          "error": { "exn": <string>, "backtrace": <string> },   // failed only
          "limit_s": <float>,                               // timed_out only
          "limit_evals": <int>,                          // out_of_budget only
          "duration_s": <float>,
          "attempts": <int>,                 // 1 + retries actually spent
          "shape_checks": { "passed": <int>, "total": <int>,
                            "failed": [<check name>, ...] },
          "degraded_samples": <int>,
          "exit_reason": <string>,           // one human-readable line
          "finished_unix": <float> }, ... ] }
    v} *)

type status =
  | Completed
  | Failed of { exn : string; backtrace : string }
  | Timed_out of { limit_s : float }
  | Out_of_budget of { limit : int }

type entry = {
  id : string;
  status : status;
  duration_s : float;
  attempts : int;  (** 1 + retries spent on this experiment *)
  shape_passed : int;
  shape_total : int;
  failed_checks : string list;  (** names of shape checks that failed *)
  degraded_samples : int;
  exit_reason : string;
  finished_unix : float;
}

type t

val empty : unit -> t
(** A fresh manifest stamped with the current {!Obs.Clock} time. *)

val entries : t -> entry list
(** In insertion order. *)

val set : t -> entry -> t
(** Replace the entry with the same id, or append. *)

val find : t -> string -> entry option

val successful : entry -> bool
(** [Completed] with every shape check passing — the condition under
    which [--resume] skips the experiment. A completed run with failing
    checks is re-run: the checks, not mere termination, are the
    experiment's contract. *)

val status_to_string : status -> string
(** ["completed"], ["failed"], ["timed_out"], ["out_of_budget"]. *)

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> (t, string) result
(** Validates the schema tag and every entry's shape. *)

val save : path:string -> t -> unit
(** Atomic write; raises [Sys_error] on I/O failure. *)

val load : path:string -> (t, string) result
(** A missing file is [Ok (empty ())]; unreadable JSON or a wrong
    schema is [Error]. *)

val load_lenient : path:string -> on_warning:(string -> unit) -> (t, string) result
(** Like {!load}, but hardened against torn/truncated files (a power
    loss mid-write, a partial final record): the longest prefix that
    closes on a complete, schema-valid entry is recovered and the
    dropped tail is reported through [on_warning] — skip-and-warn
    instead of failing resume. A file beyond recovery degrades to
    [Ok (empty ())] with a warning; [Error] is reserved for I/O
    failure. A well-formed manifest loads identically to {!load}. *)

val summary_table : t -> Report.Table.t
(** One row per entry: id, status, duration, attempts, shape checks,
    degraded samples, exit reason — the CLI's end-of-sweep report. *)
