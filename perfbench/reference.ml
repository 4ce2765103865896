(* Committed reference tables for every registry experiment and the
   tolerance-aware comparison the figures workloads run once timing
   stops.

   A cell is split into numeric and text tokens ("phi(guess=1e-3)=0.7"
   -> "phi(guess=", 1e-3, ")=", 0.7). Text tokens must match exactly;
   numeric tokens [a] (reference) and [b] match when
   [|a - b| <= abs + rel * max |a| |b|], with [rel]/[abs] read per
   experiment from [tolerances.csv] beside the tables. *)

type tol = { rel : float; abs : float }

type token = Text of string | Number of float

let is_digit c = c >= '0' && c <= '9'

let is_alnum c = is_digit c || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let tokenize s =
  let n = String.length s in
  let digits i =
    let j = ref i in
    while !j < n && is_digit s.[!j] do incr j done;
    !j
  in
  (* a number starts at a digit, or at '-' before a digit that does
     not continue a word ("cp-1" stays text) *)
  let starts i =
    is_digit s.[i]
    || (s.[i] = '-' && i + 1 < n && is_digit s.[i + 1] && (i = 0 || not (is_alnum s.[i - 1])))
  in
  let number_end i =
    let j = digits (if s.[i] = '-' then i + 1 else i) in
    let j = if j + 1 < n && s.[j] = '.' && is_digit s.[j + 1] then digits (j + 1) else j in
    if j < n && (s.[j] = 'e' || s.[j] = 'E') then
      let k = if j + 1 < n && (s.[j + 1] = '-' || s.[j + 1] = '+') then j + 2 else j + 1 in
      if k < n && is_digit s.[k] then digits k else j
    else j
  in
  let out = ref [] in
  let text = Buffer.create 16 in
  let flush () =
    if Buffer.length text > 0 then begin
      out := Text (Buffer.contents text) :: !out;
      Buffer.clear text
    end
  in
  let i = ref 0 in
  while !i < n do
    if starts !i then begin
      flush ();
      let j = number_end !i in
      out := Number (float_of_string (String.sub s !i (j - !i))) :: !out;
      i := j
    end
    else begin
      Buffer.add_char text s.[!i];
      incr i
    end
  done;
  flush ();
  List.rev !out

let cell_matches tol expected actual =
  let close a b =
    Float.abs (a -. b) <= tol.abs +. (tol.rel *. Float.max (Float.abs a) (Float.abs b))
  in
  let rec go = function
    | [], [] -> true
    | Text a :: xs, Text b :: ys -> String.equal a b && go (xs, ys)
    | Number a :: xs, Number b :: ys -> close a b && go (xs, ys)
    | _ -> false
  in
  go (tokenize expected, tokenize actual)

(* {2 Files} *)

let tolerances ~dir =
  match Report.Csv.read ~path:(Filename.concat dir "tolerances.csv") with
  | _header :: rows ->
    List.filter_map
      (function
        | id :: rel :: abs :: _ ->
          Some (id, { rel = float_of_string rel; abs = float_of_string abs })
        | _ -> None)
      rows
  | [] -> []

let table_path ~dir ~id name = Filename.concat (Filename.concat dir id) (name ^ ".csv")

(* Mismatch descriptions for one outcome; [] when every table matches. *)
let compare_outcome ~dir ~tols (outcome : Experiments.Common.outcome) =
  let id = outcome.Experiments.Common.id in
  match List.assoc_opt id tols with
  | None -> [ Printf.sprintf "%s: no tolerance in tolerances.csv" id ]
  | Some tol ->
    List.concat_map
      (fun (name, table) ->
        let path = table_path ~dir ~id name in
        let actual = Report.Table.columns table :: Report.Table.rows table in
        match Report.Csv.read ~path with
        | exception Sys_error _ -> [ Printf.sprintf "%s/%s: no reference table" id name ]
        | expected when List.length expected <> List.length actual ->
          [
            Printf.sprintf "%s/%s: %d rows, reference has %d" id name (List.length actual)
              (List.length expected);
          ]
        | expected ->
          List.concat
            (List.mapi
               (fun r (erow, arow) ->
                 if List.length erow <> List.length arow then
                   [ Printf.sprintf "%s/%s row %d: column count differs" id name r ]
                 else
                   List.concat
                     (List.map2
                        (fun e a ->
                          if cell_matches tol e a then []
                          else [ Printf.sprintf "%s/%s row %d: %S, reference %S" id name r a e ])
                        erow arow))
               (List.combine expected actual)))
      outcome.Experiments.Common.tables

(* Everything that makes one experiment's run count as failed. *)
let failures ~dir ~tols (outcome : Experiments.Common.outcome) =
  let id = outcome.Experiments.Common.id in
  let shape =
    List.filter_map
      (fun (c : Subsidization.Theorems.check) ->
        if c.passed then None else Some (Printf.sprintf "%s: shape check %s failed" id c.name))
      outcome.Experiments.Common.shape_checks
  in
  let degraded =
    match Experiments.Common.degraded_count outcome with
    | 0 -> []
    | n -> [ Printf.sprintf "%s: %d degraded samples" id n ]
  in
  shape @ degraded @ compare_outcome ~dir ~tols outcome
