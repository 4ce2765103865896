(** Column-aligned text tables for experiment output. *)

type t

val make : columns:string list -> t
(** Raises [Invalid_argument] on an empty column list. *)

val add_row : t -> string list -> unit
(** Row length must match the column count. *)

val add_floats : ?precision:int -> t -> float list -> unit
(** Convenience: format every cell with [%.*g] (precision default 5). *)

val columns : t -> string list

val row_count : t -> int

val rows : t -> string list list
(** In insertion order. *)

val to_string : t -> string
(** Render with a header rule and right-padded cells. *)

val to_csv_string : t -> string
(** RFC-4180-style CSV (quoted when needed), header included. *)
