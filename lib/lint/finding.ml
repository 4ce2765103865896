type severity = Error | Warning

let severity_name = function Error -> "error" | Warning -> "warning"

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  end_line : int;
  end_col : int;
  message : string;
}

let make ~rule ~severity ~file ~loc message =
  let open Location in
  let start = loc.loc_start and stop = loc.loc_end in
  {
    rule;
    severity;
    file;
    line = start.Lexing.pos_lnum;
    col = start.Lexing.pos_cnum - start.Lexing.pos_bol;
    end_line = stop.Lexing.pos_lnum;
    end_col = stop.Lexing.pos_cnum - stop.Lexing.pos_bol;
    message;
  }

let v ~rule ~severity ~file ~line ~col ~end_line ~end_col message =
  { rule; severity; file; line; col; end_line; end_col; message }

let at_file ~rule ~severity ~file message =
  { rule; severity; file; line = 1; col = 0; end_line = 1; end_col = 0; message }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule
