type outcome = {
  id : string;
  title : string;
  tables : (string * Report.Table.t) list;
  plots : (string * Report.Series.t list) list;
  shape_checks : Subsidization.Theorems.check list;
}

type t = { id : string; title : string; paper_ref : string; run : unit -> outcome }

(* drive an experiment through the observability layer: solver telemetry
   is scoped to this run (the CLI's `all` loop used to print running
   totals), the whole run sits under a root span, and its wall time is
   recorded as a gauge for metric exports *)
let run ?(isolate_stats = true) (t : t) =
  if isolate_stats then begin
    Numerics.Robust.reset_stats ();
    Numerics.Ad.reset_stats ();
    Numerics.Diff.reset_stats ();
    Numerics.Continuation.reset_stats ()
  end;
  Obs.Trace.with_span ("experiment:" ^ t.id) @@ fun () ->
  let t_start = Obs.Clock.now () in
  let outcome = t.run () in
  Obs.Metrics.set
    (Obs.Metrics.gauge ~labels:[ ("id", t.id) ] "experiment.duration_s")
    (Obs.Clock.elapsed ~since:t_start);
  outcome

type degraded = { sample : int; label : string; reason : string }

let check ~name passed detail = { Subsidization.Theorems.name; passed; detail }

let try_sample ~label ~sample f =
  match f () with
  | v -> Ok v
  | exception Numerics.Robust.Solver_error e ->
    Error { sample; label; reason = Numerics.Robust.error_message e }
  | exception Numerics.Rootfind.No_bracket msg -> Error { sample; label; reason = msg }
  | exception Numerics.Rootfind.No_convergence msg ->
    Error { sample; label; reason = msg }

(* experiments that tolerate solver failure publish the failures as a
   table named "degraded" (see robustness_exp); the runner's manifest
   reads the count back out through this accessor *)
let degraded_count (outcome : outcome) =
  match List.assoc_opt "degraded" outcome.tables with
  | Some table -> Report.Table.row_count table
  | None -> 0

let degraded_table ds =
  let table = Report.Table.make ~columns:[ "sample"; "label"; "reason" ] in
  List.iter
    (fun d -> Report.Table.add_row table [ string_of_int d.sample; d.label; d.reason ])
    ds;
  table

let save (outcome : outcome) ~dir =
  List.iter
    (fun (name, table) ->
      Report.Csv.write ~path:(Filename.concat (Filename.concat dir outcome.id) (name ^ ".csv")) table)
    outcome.tables

(* output goes through the caller-supplied channel (NO-LIB-PRINT):
   library code never owns stdout, bin/ does *)
let print ?(plots = true) ?(out = stdout) (outcome : outcome) =
  Printf.fprintf out "== %s: %s ==\n" outcome.id outcome.title;
  List.iter
    (fun (name, table) ->
      Printf.fprintf out "\n-- %s --\n%s\n" name (Report.Table.to_string table))
    outcome.tables;
  if plots then
    List.iter
      (fun (name, series) ->
        Printf.fprintf out "\n-- plot: %s --\n" name;
        Report.Ascii_plot.print ~out series)
      outcome.plots;
  Printf.fprintf out "\n-- shape checks --\n";
  let ppf = Format.formatter_of_out_channel out in
  List.iter
    (fun c -> Format.fprintf ppf "%a@." Subsidization.Theorems.pp_check c)
    outcome.shape_checks;
  Format.pp_print_flush ppf ();
  let passed =
    List.length (List.filter (fun c -> c.Subsidization.Theorems.passed) outcome.shape_checks)
  in
  Printf.fprintf out "%d/%d shape checks pass\n" passed (List.length outcome.shape_checks)

let shape_summary (outcome : outcome) =
  let passed =
    List.length (List.filter (fun c -> c.Subsidization.Theorems.passed) outcome.shape_checks)
  in
  Printf.sprintf "%s: %d/%d shape checks pass" outcome.id passed
    (List.length outcome.shape_checks)
