(** Phase 1 of the project analyzer (DESIGN §15): one parsed source
    file reduced to the marshal-plain facts the interprocedural rules
    consume — top-level definitions with raise and identifier-use
    sites (each annotated with whether it sits lexically under a
    [try]/match-exception boundary), [[@@sync "...[m]..."]] globals
    and their lock-context-annotated accesses, local mutexes and
    lock-wrapper functions, [[@sublint.allow]] suppression scopes and
    the interface's Result-typed value surface.

    Nothing from [Parsetree]/[Location] survives into {!file_info}, so
    records round-trip through the content-digest cache (Marshal)
    across processes and sessions. *)

type pos = { line : int; col : int; end_line : int; end_col : int }

val no_pos : pos
(** Line 1, column 0 — findings that name a file, not a site. *)

type raise_site = {
  ctor : string;
      (** constructor last component; ["Failure"] for [failwith],
          ["Invalid_argument"] for [invalid_arg], ["Assert_failure"]
          for [assert false], ["<re-raise>"]/["<computed>"] for raises
          of a variable / computed expression *)
  r_pos : pos;
  r_absorbed : bool;
      (** lexically inside a [try] body or the scrutinee of a match
          with an [exception] case: a Result boundary absorbs it *)
}

type use_site = {
  callee : string list;  (** the path as written, e.g. [["Robust"; "root"]] *)
  u_pos : pos;
  u_absorbed : bool;
}

type def_info = {
  d_name : string;  (** dotted under nested modules, e.g. ["Inner.f"] *)
  d_pos : pos;
  raises : raise_site list;
  uses : use_site list;
      (** every identifier use in the def's body — the conservative
          call-graph edge set (higher-order uses included) *)
}

type sync_global = {
  g_name : string;
  g_mutex : string option;
      (** the first lowercase [[m]] bracket in the sync note: the
          mutex SYNC-DISCIPLINE holds the module to *)
  g_pos : pos;
}

type sync_access = {
  target : string;
  a_pos : pos;
  locks_held : string list;
      (** dotted mutex paths whose critical sections lexically enclose
          the access ([Mutex.protect m (fun () -> ...)], [with_lock m],
          or a recognized local wrapper) *)
  in_unlocked : bool;
      (** inside a [*_unlocked] function: the documented
          caller-holds-the-lock convention *)
}

type suppression = {
  s_rule : string;
  s_reason : string;
  s_pos : pos;
  line_lo : int;
  line_hi : int;  (** inclusive source-line span the suppression covers *)
  malformed : string option;
      (** a diagnostic when the payload is not two string literals *)
}

type file_info = {
  path : string;
  module_name : string;
  opens : string list list;
  defs : def_info list;
  sync_globals : sync_global list;
  sync_accesses : sync_access list;
  mutexes : string list;  (** top-level [let m = Mutex.create ()] names *)
  wrappers : (string * string) list;
      (** local wrappers eta-expanding [Mutex.protect]: name, mutex *)
  result_vals : (string * pos) list;
      (** .mli vals whose return type is a two-parameter [result] *)
  suppressions : suppression list;
  syntactic : Finding.t list;  (** per-file rule findings (filled by the driver) *)
  parse_error : string option;
}

val empty : path:string -> module_name:string -> file_info
val module_name_of_path : string -> string

val of_implementation : path:string -> Parsetree.structure -> file_info
(** Extract every fact except [syntactic] and [parse_error]. *)

val of_interface : path:string -> Parsetree.signature -> file_info
(** Interface facts: Result-typed vals and file-scoped suppressions. *)
