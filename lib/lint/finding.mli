(** One static-analysis finding: a rule violation pinned to a source span.

    Findings are value types shared by the rule checks, the baseline
    ratchet and the exporters; they carry repo-relative '/'-separated
    paths so reports and baselines are stable across machines. *)

type severity = Error | Warning

val severity_name : severity -> string
(** ["error"] / ["warning"], as printed in tables and [lint.v1] JSON. *)

type t = {
  rule : string;  (** rule id, e.g. ["NO-BARE-RAISE"] *)
  severity : severity;
  file : string;  (** repo-relative path, '/'-separated *)
  line : int;  (** 1-based start line *)
  col : int;  (** 0-based start column *)
  end_line : int;
  end_col : int;
  message : string;
}

val make :
  rule:string ->
  severity:severity ->
  file:string ->
  loc:Location.t ->
  string ->
  t
(** Build a finding from a compiler-libs location (the file recorded in
    the location is ignored in favour of [file]). *)

val v :
  rule:string ->
  severity:severity ->
  file:string ->
  line:int ->
  col:int ->
  end_line:int ->
  end_col:int ->
  string ->
  t
(** Build a finding from plain coordinates — the semantic phase works
    from the marshal-plain index, which carries no [Location.t]. *)

val at_file :
  rule:string -> severity:severity -> file:string -> string -> t
(** A file-level finding (no meaningful span), anchored at line 1. *)

val compare : t -> t -> int
(** Order by file, then line, column and rule id — the order reports
    and baselines are emitted in. *)
