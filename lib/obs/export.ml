let json_of_labels labels : Json.t =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let json_of_series (name, labels, read) : Json.t =
  let common = [ ("name", Json.Str name); ("labels", json_of_labels labels) ] in
  match (read : Metrics.read) with
  | Metrics.Counter v -> Json.Obj (common @ [ ("kind", Json.Str "counter"); ("value", Json.Num v) ])
  | Metrics.Gauge v -> Json.Obj (common @ [ ("kind", Json.Str "gauge"); ("value", Json.Num v) ])
  | Metrics.Histogram s ->
    Json.Obj
      (common
      @ [
          ("kind", Json.Str "histogram");
          ("count", Json.Num (float_of_int s.Metrics.count));
          ("sum", Json.Num s.Metrics.sum);
          ("min", Json.Num s.Metrics.min);
          ("max", Json.Num s.Metrics.max);
          ("p50", Json.Num s.Metrics.p50);
          ("p90", Json.Num s.Metrics.p90);
          ("p99", Json.Num s.Metrics.p99);
          ( "buckets",
            Json.Arr
              (List.map
                 (fun (center, count) ->
                   Json.Obj
                     [ ("center", Json.Num center); ("count", Json.Num (float_of_int count)) ])
                 s.Metrics.buckets) );
        ])

let metrics_json ?prefix () : Json.t =
  Json.Obj
    [
      ("schema", Json.Str "obs.metrics.v1");
      ("generated_unix", Json.Num (Clock.now ()));
      ("series", Json.Arr (List.map json_of_series (Metrics.snapshot ?prefix ())));
    ]

let series_field json ~name field =
  let named s = Json.member "name" s = Some (Json.Str name) in
  match Option.bind (Json.member "series" json) Json.to_list with
  | None -> None
  | Some series ->
    Option.bind (List.find_opt named series) (fun s ->
        Option.bind (Json.member field s) Json.to_float)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event *)

let trace_json () : Json.t =
  let spans = Trace.spans () in
  let t0 = match spans with [] -> 0. | s :: _ -> s.Trace.start in
  let event (s : Trace.span) : Json.t =
    let dur = if Float.is_nan s.stop then 0. else Clock.us_of_s (s.stop -. s.start) in
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str "obs");
        ("ph", Json.Str "X");
        ("ts", Json.Num (Clock.us_of_s (s.start -. t0)));
        ("dur", Json.Num dur);
        ("pid", Json.Num 1.);
        ("tid", Json.Num 1.);
        ( "args",
          Json.Obj
            ([
               ("span_id", Json.Num (float_of_int s.id));
               ( "parent_id",
                 match s.parent with None -> Json.Null | Some p -> Json.Num (float_of_int p) );
             ]
            @ List.rev_map (fun (k, v) -> (k, Json.Str v)) s.attrs) );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map event spans));
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [
            ("schema", Json.Str "obs.trace.v1");
            ("spans", Json.Num (float_of_int (List.length spans)));
            ("dropped", Json.Num (float_of_int (Trace.dropped ())));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* tables *)

let fmt_g x = Printf.sprintf "%.6g" x

(* the solver-focused end-of-run table: one row per layer, discovered
   from the latency histograms Robust maintains *)
let telemetry_table () =
  let snapshot = Metrics.snapshot ~prefix:"solver." () in
  let latencies =
    List.filter_map
      (function
        | ("solver.latency", labels, Metrics.Histogram s) when s.Metrics.count > 0 ->
          Option.map (fun layer -> (layer, s)) (Metrics.label labels "layer")
        | _ -> None)
      snapshot
  in
  let table =
    Report.Table.make
      ~columns:
        [
          "layer"; "calls"; "attempts"; "fallback rate"; "failures"; "evals"; "p50 ms";
          "p99 ms";
        ]
  in
  List.iter
    (fun (layer, (s : Metrics.summary)) ->
      let where labels = Metrics.label labels "layer" = Some layer in
      let calls = Metrics.sum_counters ~where "solver.root.calls" in
      let recoveries = Metrics.sum_counters ~where "solver.fallbacks" in
      Report.Table.add_row table
        [
          layer;
          fmt_g calls;
          fmt_g (Metrics.sum_counters ~where "solver.attempts");
          (if calls > 0. then Printf.sprintf "%.3f" (recoveries /. calls) else "-");
          fmt_g (Metrics.sum_counters ~where "solver.failures");
          fmt_g (Metrics.sum_histograms ~where "solver.evaluations");
          Printf.sprintf "%.4g" (s.Metrics.p50 *. 1e3);
          Printf.sprintf "%.4g" (s.Metrics.p99 *. 1e3);
        ])
    latencies;
  table

let write_json ~path json =
  let line = Json.to_string json in
  if path = "-" then print_endline line
  else
    match
      Report.Fsio.write_atomic ~path (fun oc ->
          output_string oc line;
          output_char oc '\n')
    with
    | Ok () -> ()
    | Error msg ->
      (* surfaced, not swallowed: the failure is both counted and raised *)
      Metrics.incr (Metrics.counter "obs.export.write_errors");
      raise (Sys_error (path ^ ": " ^ msg))
