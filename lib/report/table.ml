type t = { columns : string list; mutable rev_rows : string list list }

let make ~columns =
  if columns = [] then invalid_arg "Table.make: no columns";
  { columns; rev_rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row: %d cells for %d columns" (List.length row)
         (List.length t.columns));
  t.rev_rows <- row :: t.rev_rows

let add_floats ?(precision = 5) t row =
  add_row t (List.map (Printf.sprintf "%.*g" precision) row)

let columns t = t.columns
let row_count t = List.length t.rev_rows
let rows t = List.rev t.rev_rows

let to_string t =
  let all = t.columns :: rows t in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> Stdlib.max w (String.length cell)) acc row)
      (List.map String.length t.columns)
      (rows t)
  in
  let render_row row =
    String.concat "  " (List.map2 (fun w cell -> Printf.sprintf "%-*s" w cell) widths row)
  in
  let header = render_row t.columns in
  let rule = String.make (String.length header) '-' in
  String.concat "\n" (header :: rule :: List.map render_row (List.tl all))

let csv_escape cell =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') cell
  in
  if needs_quoting then begin
    let buf = Buffer.create (String.length cell + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      cell;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else cell

let to_csv_string t =
  let line row = String.concat "," (List.map csv_escape row) in
  String.concat "\n" (line t.columns :: List.map line (rows t)) ^ "\n"
