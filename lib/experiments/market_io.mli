(** Loading CP populations from CSV files.

    Format: a header `name,alpha,beta,value[,m0,l0]` followed by one row
    per CP; all CPs use the paper's exponential families.

    Parsing is [Result]-typed: malformed input (bad header, short rows,
    unparsable or non-finite floats, out-of-domain parameters,
    duplicate CP names, CSV-level quote damage) comes back as a
    structured {!error} locating the offending row and field — never an
    exception, so a bad [--market] file can be reported and exited on
    cleanly. *)

type error = {
  path : string;  (** the file (or pseudo-path) being parsed *)
  row : int option;  (** 1-based CSV row, header = 1; [None] = whole file *)
  field : string option;  (** column name, when one is implicated *)
  message : string;
}

val error_to_string : error -> string
(** ["data/m.csv, row 3, field alpha: alpha must be positive, got -2"] *)

val cps_of_csv : string -> (Econ.Cp.t array, error) result
(** Load and validate a CP population. Domain rules: [alpha > 0],
    [beta > 0], [value >= 0], [m0 > 0], [l0 > 0], every float finite,
    and CP names pairwise distinct (empty names rejected). Raises
    [Sys_error] only if the file cannot be read at all. *)

val cps_of_string : path:string -> string -> (Econ.Cp.t array, error) result
(** Same, from CSV text already in memory ([path] only labels
    errors). *)

val json_of_cps : Econ.Cp.t array -> Obs.Json.t
(** The JSON wire form used by the solve daemon: an array of
    [{name, alpha, beta, value, m0, l0}] objects, same columns as the
    CSV. Raises [Invalid_argument] if a CP uses a non-exponential
    family. *)

val cps_of_json : path:string -> Obs.Json.t -> (Econ.Cp.t array, error) result
(** Inverse of {!json_of_cps}, applying exactly the CSV domain rules
    (positivity, finiteness, distinct non-empty names, non-empty
    population). [path] labels errors (e.g. the connection name);
    [row] in errors is the 1-based array index. *)

val write_cps : path:string -> Econ.Cp.t array -> unit
(** Write exponential-family CPs back out in the same format
    (atomically, via {!Report.Csv.write}). Raises [Invalid_argument]
    if a CP uses a non-exponential family. *)
