(** Phase 2 substrate: the project call graph over module-qualified
    paths (DESIGN §15).

    Nodes are top-level definitions [(file, dotted def name)]; edges
    are identifier uses (higher-order uses included — passing a
    function to [List.map] is an edge) resolved against the module
    tables, excluding uses sitting under a [try]/match-exception
    boundary. Resolution tries, in order: a nested module of the same
    file; a sibling module of the same wrapping library; a fully
    library-qualified path ([Numerics.Robust.root]); each [open] in
    scope. Unresolvable uses (stdlib, locals, constructors) contribute
    no edge — the analysis is conservative over project code only. *)

type project = {
  infos : Index.file_info list;
  lib_of : string -> string option;
      (** repo-relative path -> capitalized wrapping-library module
          (e.g. ["lib/numerics/robust.ml"] -> [Some "Numerics"]) *)
}

type node = { n_file : string; n_def : string }

val make_project :
  lib_of:(string -> string option) -> Index.file_info list -> project

type t

val build : project -> t

val def_of : t -> node -> Index.def_info option

val node_name : t -> node -> string
(** Human name: ["Robust.root"]. *)

val reachable :
  ?follow:(node -> bool) -> t -> from:node -> (node * node list) list
(** Every definition reachable from [from] over unabsorbed resolved
    edges (including [from] itself), paired with one call path (entry
    first). [follow] prunes traversal (EXN-ESCAPE uses it for
    suppression barriers). Deterministic order: BFS with source-order
    edge lists. *)
