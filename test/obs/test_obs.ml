(* Instrumentation suite: span nesting and exception safety, histogram
   percentile math against known distributions, counter label merging,
   exact totals when domains share metric handles (and after they exit),
   trace/metrics JSON round-trips through the parser, and an
   integration check that a Nash solve on the paper's fig7 game leaves
   spans for every layer of the equilibrium pipeline. *)

open Test_helpers

let with_tracing f =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Trace.set_enabled false; Obs.Trace.clear ()) f

let span_named name =
  List.filter (fun s -> s.Obs.Trace.name = name) (Obs.Trace.spans ())

(* ------------------------------------------------------------------ *)
(* clock *)

let test_clock_monotone () =
  let samples = Array.init 1000 (fun _ -> Obs.Clock.now ()) in
  Array.iteri
    (fun i t -> if i > 0 then check_true "clock never decreases" (t >= samples.(i - 1)))
    samples;
  check_true "elapsed non-negative" (Obs.Clock.elapsed ~since:(Obs.Clock.now ()) >= 0.);
  check_close ~tol:1e-9 "us conversion" 2.5e6 (Obs.Clock.us_of_s 2.5)

(* ------------------------------------------------------------------ *)
(* metrics *)

let test_counter_label_merging () =
  Obs.Metrics.reset ~prefix:"t.merge." ();
  let a = Obs.Metrics.counter ~labels:[ ("x", "1"); ("y", "2") ] "t.merge.c" in
  (* same label set, opposite order: must be the same series *)
  let b = Obs.Metrics.counter ~labels:[ ("y", "2"); ("x", "1") ] "t.merge.c" in
  let other = Obs.Metrics.counter ~labels:[ ("x", "1"); ("y", "3") ] "t.merge.c" in
  Obs.Metrics.incr a;
  Obs.Metrics.incr ~by:2. b;
  Obs.Metrics.incr ~by:10. other;
  check_close "merged handle sees both increments" 3. (Obs.Metrics.counter_value a);
  check_close "distinct labels stay distinct" 10. (Obs.Metrics.counter_value other);
  check_close "sum over series" 13. (Obs.Metrics.sum_counters "t.merge.c");
  check_close "filtered sum" 3.
    (Obs.Metrics.sum_counters
       ~where:(fun labels -> Obs.Metrics.label labels "y" = Some "2")
       "t.merge.c")

let test_kind_conflict () =
  let _ = Obs.Metrics.counter "t.kind.c" in
  check_raises_invalid "re-registering as gauge" (fun () -> Obs.Metrics.gauge "t.kind.c")

let test_reset_in_place () =
  let c = Obs.Metrics.counter "t.reset.c" in
  Obs.Metrics.incr ~by:5. c;
  Obs.Metrics.reset ~prefix:"t.reset." ();
  check_close "zeroed" 0. (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  check_close "handle still live after reset" 1. (Obs.Metrics.counter_value c)

let test_histogram_percentiles_uniform () =
  Obs.Metrics.reset ~prefix:"t.hist." ();
  let h = Obs.Metrics.histogram "t.hist.uniform" in
  (* 1..1000 uniformly: p50 = 500, p90 = 900, p99 = 990; log-bucket
     resolution is 24/decade so answers must land within ~10% *)
  for i = 1 to 1000 do
    Obs.Metrics.observe h (float_of_int i)
  done;
  let rel_close msg expected actual =
    if Float.abs (actual -. expected) > 0.10 *. expected then
      Alcotest.failf "%s: expected ~%g, got %g" msg expected actual
  in
  rel_close "p50 of 1..1000" 500. (Obs.Metrics.percentile h 50.);
  rel_close "p90 of 1..1000" 900. (Obs.Metrics.percentile h 90.);
  rel_close "p99 of 1..1000" 990. (Obs.Metrics.percentile h 99.);
  check_close "p0 clamps to min" 1. (Obs.Metrics.percentile h 0.);
  check_close "p100 clamps to max" 1000. (Obs.Metrics.percentile h 100.);
  let s = Obs.Metrics.summarize h in
  Alcotest.(check int) "count" 1000 s.Obs.Metrics.count;
  check_close "sum" 500500. s.Obs.Metrics.sum;
  check_close "min" 1. s.Obs.Metrics.min;
  check_close "max" 1000. s.Obs.Metrics.max

let test_histogram_percentiles_bimodal () =
  let h = Obs.Metrics.histogram "t.hist.bimodal" in
  (* 90 samples at ~1ms, 10 at ~1s: p50 must sit in the fast mode,
     p99 in the slow one — the property that localizes a slow tail *)
  for _ = 1 to 90 do
    Obs.Metrics.observe h 1e-3
  done;
  for _ = 1 to 10 do
    Obs.Metrics.observe h 1.0
  done;
  check_in_range "p50 in fast mode" ~lo:0.8e-3 ~hi:1.2e-3 (Obs.Metrics.percentile h 50.);
  check_in_range "p99 in slow mode" ~lo:0.8 ~hi:1.2 (Obs.Metrics.percentile h 99.);
  let empty = Obs.Metrics.histogram "t.hist.empty" in
  check_true "empty histogram percentile is nan"
    (Float.is_nan (Obs.Metrics.percentile empty 50.))

let test_histogram_underflow () =
  let h = Obs.Metrics.histogram "t.hist.underflow" in
  Obs.Metrics.observe h 0.;
  Obs.Metrics.observe h 5.;
  let s = Obs.Metrics.summarize h in
  Alcotest.(check int) "zero-valued samples counted" 2 s.Obs.Metrics.count;
  check_close "p25 resolves to min" 0. (Obs.Metrics.percentile h 25.)

(* ------------------------------------------------------------------ *)
(* tracing *)

let test_span_nesting () =
  with_tracing @@ fun () ->
  let r =
    Obs.Trace.with_span "outer" (fun () ->
        Obs.Trace.with_span "inner.a" (fun () -> ()) ;
        Obs.Trace.with_span "inner.b" (fun () -> 17))
  in
  Alcotest.(check int) "thunk result propagates" 17 r;
  let spans = Obs.Trace.spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let outer = List.hd (span_named "outer") in
  let a = List.hd (span_named "inner.a") in
  let b = List.hd (span_named "inner.b") in
  Alcotest.(check (option int)) "outer is a root" None outer.Obs.Trace.parent;
  Alcotest.(check (option int)) "a nests under outer" (Some outer.Obs.Trace.id) a.Obs.Trace.parent;
  Alcotest.(check (option int)) "b nests under outer" (Some outer.Obs.Trace.id) b.Obs.Trace.parent;
  (* ordering: sorted by start, parents first; ids reflect open order *)
  check_true "outer starts first" (outer.Obs.Trace.start <= a.Obs.Trace.start);
  check_true "a starts before b" (a.Obs.Trace.id < b.Obs.Trace.id);
  check_true "a closes before b opens" (a.Obs.Trace.stop <= b.Obs.Trace.start);
  check_true "outer closes last" (outer.Obs.Trace.stop >= b.Obs.Trace.stop);
  Alcotest.(check (list string)) "sorted order is outer, a, b"
    [ "outer"; "inner.a"; "inner.b" ]
    (List.map (fun s -> s.Obs.Trace.name) spans)

let test_span_disabled_is_free () =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled false;
  let r = Obs.Trace.with_span "ghost" (fun () -> 3) in
  Alcotest.(check int) "thunk still runs" 3 r;
  Alcotest.(check int) "no spans buffered" 0 (List.length (Obs.Trace.spans ()))

let test_span_closed_on_exception () =
  with_tracing @@ fun () ->
  (try Obs.Trace.with_span "boom" (fun () -> failwith "bang") with Failure _ -> ());
  match span_named "boom" with
  | [ s ] ->
    check_true "stop recorded despite the raise" (not (Float.is_nan s.Obs.Trace.stop));
    Alcotest.(check (option string)) "stack unwound" None (Obs.Trace.current ())
  | other -> Alcotest.failf "expected 1 completed span, got %d" (List.length other)

let test_span_attrs () =
  with_tracing @@ fun () ->
  Obs.Trace.with_span ~attrs:[ ("k", "v") ] "tagged" (fun () ->
      Obs.Trace.add_attr "extra" "1");
  let s = List.hd (span_named "tagged") in
  Alcotest.(check (option string)) "static attr" (Some "v")
    (List.assoc_opt "k" s.Obs.Trace.attrs);
  Alcotest.(check (option string)) "dynamic attr" (Some "1")
    (List.assoc_opt "extra" s.Obs.Trace.attrs)

(* ------------------------------------------------------------------ *)
(* JSON round trips *)

let test_json_round_trip () =
  let v =
    Obs.Json.(
      Obj
        [
          ("s", Str "quote \" backslash \\ newline \n unicode \xc3\xa9");
          ("n", Num 1.5);
          ("i", Num 42.);
          ("neg", Num (-0.125));
          ("b", Bool true);
          ("null", Null);
          ("arr", Arr [ Num 1.; Str "two"; Obj [ ("deep", Bool false) ] ]);
          ("empty_arr", Arr []);
          ("empty_obj", Obj []);
        ])
  in
  let reparsed = Obs.Json.of_string (Obs.Json.to_string v) in
  check_true "compact round trip is identity" (reparsed = v);
  let reparsed_pretty = Obs.Json.of_string (Obs.Json.to_string ~pretty:true v) in
  check_true "pretty round trip is identity" (reparsed_pretty = v);
  (match Obs.Json.of_string {| {"a": [1, 2.5e2, -3], "bA": "é😀"} |} with
  | Obs.Json.Obj [ ("a", Obs.Json.Arr [ _; Obs.Json.Num x; _ ]); (key, _) ] ->
    check_close "exponent parsed" 250. x;
    Alcotest.(check string) "escaped key decoded" "b\x41" key
  | _ -> Alcotest.fail "unexpected parse shape");
  check_raises_invalid "trailing garbage rejected" (fun () ->
      try Obs.Json.of_string "{} junk"
      with Obs.Json.Parse_error _ -> invalid_arg "ok")

let test_trace_json_round_trip () =
  with_tracing (fun () ->
      Obs.Trace.with_span "root" (fun () ->
          Obs.Trace.with_span ~attrs:[ ("p", "0.8") ] "child" (fun () -> ()));
      let doc = Obs.Export.trace_json () in
      let reparsed = Obs.Json.of_string (Obs.Json.to_string doc) in
      match Option.bind (Obs.Json.member "traceEvents" reparsed) Obs.Json.to_list with
      | Some events ->
        Alcotest.(check int) "one event per span" 2 (List.length events);
        List.iter
          (fun e ->
            check_true "ts present"
              (Option.is_some (Option.bind (Obs.Json.member "ts" e) Obs.Json.to_float));
            check_true "dur present"
              (Option.is_some (Option.bind (Obs.Json.member "dur" e) Obs.Json.to_float)))
          events
      | None -> Alcotest.fail "traceEvents missing after round trip")

let test_metrics_json_round_trip () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~labels:[ ("layer", "t") ] "t.json.c" in
  Obs.Metrics.incr ~by:7. c;
  let h = Obs.Metrics.histogram "t.json.h" in
  Obs.Metrics.observe h 0.5;
  let doc = Obs.Export.metrics_json ~prefix:"t.json." () in
  let reparsed = Obs.Json.of_string (Obs.Json.to_string doc) in
  match Option.bind (Obs.Json.member "series" reparsed) Obs.Json.to_list with
  | Some series ->
    Alcotest.(check int) "two series survive the round trip" 2 (List.length series)
  | None -> Alcotest.fail "series missing after round trip"

(* ------------------------------------------------------------------ *)
(* integration: the equilibrium pipeline leaves a full trace *)

let test_nash_trace_all_layers () =
  let game =
    Subsidization.Subsidy_game.make
      (Subsidization.Scenario.fig7_11_system ())
      ~price:0.8 ~cap:1.0
  in
  Numerics.Robust.reset_stats ();
  with_tracing @@ fun () ->
  let eq = Obs.Trace.with_span "experiment:test" (fun () -> Subsidization.Nash.solve game) in
  check_true "equilibrium converged" eq.Subsidization.Nash.converged;
  (* every layer of the pipeline must have produced spans... *)
  let count name = List.length (span_named name) in
  check_true "nash.solve span" (count "nash.solve" = 1);
  check_true "best_response.solve span" (count "best_response.solve" = 1);
  check_true "equilibrium solve spans" (count "system.equilibrium_phi" > 0);
  (* ...nested in pipeline order *)
  let by_id =
    List.fold_left
      (fun acc s -> (s.Obs.Trace.id, s) :: acc)
      [] (Obs.Trace.spans ())
  in
  let rec ancestors (s : Obs.Trace.span) =
    match s.Obs.Trace.parent with
    | None -> []
    | Some p ->
      let parent = List.assoc p by_id in
      parent.Obs.Trace.name :: ancestors parent
  in
  let phi = List.hd (span_named "system.equilibrium_phi") in
  let chain = ancestors phi in
  check_true "equilibrium nests under best_response"
    (List.mem "best_response.solve" chain);
  check_true "equilibrium nests under nash.solve" (List.mem "nash.solve" chain);
  check_true "equilibrium nests under the experiment root"
    (List.mem "experiment:test" chain);
  (* and the registry must agree with the legacy facade *)
  let stats = Numerics.Robust.stats () in
  check_close "per-layer counters sum to the facade total"
    (float_of_int stats.Numerics.Robust.root_calls)
    (Obs.Metrics.sum_counters "solver.root.calls");
  check_true "utilization layer labelled"
    (Obs.Metrics.sum_counters
       ~where:(fun labels -> Obs.Metrics.label labels "layer" = Some "utilization")
       "solver.root.calls"
    > 0.)

(* the satellite fix: Common.run scopes solver telemetry per run *)
let test_per_run_stats_scoping () =
  let fig4 = Experiments.Registry.find_exn "fig4" in
  let _ = Experiments.Common.run fig4 in
  let first = (Numerics.Robust.stats ()).Numerics.Robust.root_calls in
  check_true "fig4 does root solves" (first > 0);
  let _ = Experiments.Common.run fig4 in
  let second = (Numerics.Robust.stats ()).Numerics.Robust.root_calls in
  Alcotest.(check int) "second run reports its own count, not the running total"
    first second;
  (* opt-out keeps the old cumulative behaviour *)
  let _ = Experiments.Common.run ~isolate_stats:false fig4 in
  let third = (Numerics.Robust.stats ()).Numerics.Robust.root_calls in
  Alcotest.(check int) "isolate_stats:false accumulates" (2 * first) third

(* ------------------------------------------------------------------ *)
(* log *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let with_log_capture f =
  let events = ref [] in
  Obs.Log.reset ();
  Obs.Log.set_sink (Obs.Log.Custom (fun e -> events := e :: !events));
  Fun.protect ~finally:Obs.Log.reset (fun () -> f events)

let test_log_levels () =
  with_log_capture (fun events ->
      Obs.Log.set_level Obs.Log.Warn;
      Obs.Log.info ~m:"a" "dropped";
      Obs.Log.warn ~m:"a" "kept";
      Obs.Log.set_module_level "chatty" Obs.Log.Debug;
      Obs.Log.debug ~m:"chatty" "kept too";
      Obs.Log.debug ~m:"quiet" "dropped too";
      check_true "module override enables"
        (Obs.Log.enabled ~m:"chatty" Obs.Log.Debug);
      check_true "default threshold filters"
        (not (Obs.Log.enabled ~m:"quiet" Obs.Log.Info));
      let msgs = List.rev_map (fun e -> e.Obs.Log.msg) !events in
      Alcotest.(check (list string)) "filtered stream" [ "kept"; "kept too" ] msgs)

let test_log_level_names () =
  List.iter
    (fun (name, expected) ->
      match Obs.Log.level_of_name name with
      | Ok l -> check_true ("parse " ^ name) (l = expected)
      | Error msg -> Alcotest.failf "parse %s: %s" name msg)
    [
      ("debug", Obs.Log.Debug);
      ("INFO", Obs.Log.Info);
      ("warn", Obs.Log.Warn);
      ("warning", Obs.Log.Warn);
      ("Error", Obs.Log.Error);
    ];
  check_true "garbage rejected"
    (match Obs.Log.level_of_name "loud" with Error _ -> true | Ok _ -> false)

let test_log_rate_limit () =
  with_log_capture (fun events ->
      Obs.Log.set_rate_limit ~min_interval_s:3600. ();
      for i = 1 to 5 do
        Obs.Log.warn ~m:"flood" "same line" ~fields:[ ("i", string_of_int i) ]
      done;
      (* a different message is a different key, not a repeat *)
      Obs.Log.warn ~m:"flood" "other line";
      Alcotest.(check int) "first per key emits, repeats coalesce" 2
        (List.length !events);
      Obs.Log.drain ();
      Alcotest.(check int) "drain flushes the coalesced tail" 3
        (List.length !events);
      let flushed =
        List.find (fun e -> e.Obs.Log.repeats > 0) !events
      in
      Alcotest.(check int) "four suppressed repeats" 4 flushed.Obs.Log.repeats;
      Alcotest.(check (option string)) "last duplicate's fields win" (Some "5")
        (List.assoc_opt "i" flushed.Obs.Log.fields);
      Obs.Log.drain ();
      Alcotest.(check int) "drain is idempotent" 3 (List.length !events))

let test_log_jsonl_round_trip () =
  let e =
    {
      Obs.Log.t_s = 12.5;
      level = Obs.Log.Error;
      module_ = "srv";
      msg = "boom \"quoted\"\nnewline";
      fields = [ ("k", "v w") ];
      repeats = 3;
    }
  in
  let json = Obs.Json.of_string (Obs.Log.render_jsonl e) in
  let str name =
    match Obs.Json.member name json with Some (Obs.Json.Str s) -> s | _ -> ""
  in
  Alcotest.(check string) "level" "error" (str "level");
  Alcotest.(check string) "module" "srv" (str "m");
  Alcotest.(check string) "message survives escaping" e.Obs.Log.msg (str "msg");
  (match Obs.Json.member "repeats" json with
  | Some (Obs.Json.Num n) -> check_close "repeats" 3. n
  | _ -> Alcotest.fail "repeats field missing");
  (match Obs.Json.member "fields" json with
  | Some (Obs.Json.Obj [ ("k", Obs.Json.Str v) ]) ->
    Alcotest.(check string) "field value" "v w" v
  | _ -> Alcotest.fail "fields object missing");
  (* human rendering stays single-line even for multi-line messages *)
  let human = Obs.Log.render_human { e with msg = "boom" } in
  check_true "human line mentions module" (contains human "srv: boom")

(* ------------------------------------------------------------------ *)
(* series *)

let test_series_wraparound () =
  let s = Obs.Series.create ~capacity:4 () in
  for i = 1 to 6 do
    Obs.Series.append s ~name:"x" ~t_s:(float_of_int i) (float_of_int (10 * i))
  done;
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "ring keeps the newest capacity points, oldest first"
    [ (3., 30.); (4., 40.); (5., 50.); (6., 60.) ]
    (Obs.Series.points s "x");
  Alcotest.(check (list string)) "names" [ "x" ] (Obs.Series.names s);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "unknown name is empty" [] (Obs.Series.points s "y")

let test_series_tick_rates () =
  Obs.Metrics.reset ~prefix:"t.series." ();
  let c = Obs.Metrics.counter "t.series.reqs" in
  let g = Obs.Metrics.gauge "t.series.depth" in
  let h = Obs.Metrics.histogram "t.series.lat" in
  let s = Obs.Series.create ~capacity:16 () in
  Obs.Metrics.set g 7.;
  Obs.Series.tick ~prefix:"t.series." ~now:100. s;
  (* first tick primes baselines: gauge recorded, no rates yet *)
  check_true "no rate after one tick"
    (Obs.Series.points s "t.series.reqs.rate" = []);
  Obs.Metrics.incr ~by:30. c;
  Obs.Metrics.observe h 1.0;
  Obs.Metrics.observe h 1.0;
  Obs.Series.tick ~prefix:"t.series." ~now:110. s;
  (match Obs.Series.points s "t.series.reqs.rate" with
  | [ (t, rate) ] ->
    check_close "rate timestamp" 110. t;
    check_close "counter delta over elapsed" 3. rate
  | pts -> Alcotest.failf "expected one rate point, got %d" (List.length pts));
  (match Obs.Series.points s "t.series.depth" with
  | (_, v0) :: _ -> check_close "gauge sampled" 7. v0
  | [] -> Alcotest.fail "gauge series missing");
  (match Obs.Series.points s "t.series.lat.p50" with
  | [ (_, p50) ] -> check_close ~tol:0.15 "histogram p50 track" 1.0 p50
  | pts -> Alcotest.failf "expected one p50 point, got %d" (List.length pts));
  (match Obs.Series.points s "t.series.lat.rate" with
  | [ (_, rate) ] -> check_close "histogram count rate" 0.2 rate
  | pts -> Alcotest.failf "expected one lat rate point, got %d" (List.length pts))

let test_series_window () =
  let s = Obs.Series.create ~capacity:32 () in
  List.iter
    (fun (t, v) -> Obs.Series.append s ~name:"w" ~t_s:t v)
    [ (0., 100.); (50., 2.); (55., 4.); (60., 6.) ];
  (match Obs.Series.window ~last_s:10. s "w" with
  | Some w ->
    Alcotest.(check int) "points in window" 3 w.Obs.Series.n;
    check_close "last" 6. w.Obs.Series.last;
    check_close "mean" 4. w.Obs.Series.mean;
    check_close "min" 2. w.Obs.Series.min;
    check_close "max" 6. w.Obs.Series.max
  | None -> Alcotest.fail "window empty");
  (match Obs.Series.window s "w" with
  | Some w -> Alcotest.(check int) "default window takes all" 4 w.Obs.Series.n
  | None -> Alcotest.fail "full window empty");
  check_true "unknown series has no window" (Obs.Series.window s "nope" = None)

let test_series_concurrent_ticks () =
  Obs.Metrics.reset ~prefix:"t.conc." ();
  let c = Obs.Metrics.counter "t.conc.reqs" in
  let s = Obs.Series.create ~capacity:8 () in
  let pool = Parallel.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      Parallel.Pool.run_tasks pool
        (Array.init 4 (fun k () ->
             for i = 1 to 50 do
               Obs.Metrics.incr c;
               Obs.Series.tick ~prefix:"t.conc."
                 ~now:(float_of_int ((100 * k) + i))
                 s;
               Obs.Series.append s ~name:"extra"
                 ~t_s:(float_of_int ((100 * k) + i))
                 (float_of_int i)
             done)));
  (* thread-safety smoke: bounded memory, consistent rings, no tearing *)
  List.iter
    (fun name ->
      let pts = Obs.Series.points s name in
      check_true ("capacity bound on " ^ name) (List.length pts <= 8);
      check_true ("timestamps finite in " ^ name)
        (List.for_all (fun (t, v) -> Float.is_finite t && Float.is_finite v) pts))
    (Obs.Series.names s);
  check_true "extra ring survived" (List.mem "extra" (Obs.Series.names s))

(* ------------------------------------------------------------------ *)
(* prometheus exposition *)

let prom_lines text = String.split_on_char '\n' text

let sample_value text line_prefix =
  match
    List.find_opt
      (fun l -> String.length l >= String.length line_prefix
                && String.sub l 0 (String.length line_prefix) = line_prefix)
      (prom_lines text)
  with
  | None -> Alcotest.failf "no sample starting with %S in:\n%s" line_prefix text
  | Some l -> (
    match String.rindex_opt l ' ' with
    | None -> Alcotest.failf "malformed sample line %S" l
    | Some i ->
      float_of_string (String.sub l (i + 1) (String.length l - i - 1)))

let test_prom_exposition () =
  Obs.Metrics.reset ~prefix:"t.prom." ();
  let c =
    Obs.Metrics.counter
      ~labels:[ ("z", "last"); ("a", {|qu"ote\back|} ^ "\nnl") ]
      "t.prom.hits"
  in
  Obs.Metrics.incr ~by:42. c;
  let g = Obs.Metrics.gauge "t.prom.depth" in
  Obs.Metrics.set g 3.5;
  let h = Obs.Metrics.histogram "t.prom.lat" in
  List.iter (Obs.Metrics.observe h) [ 0.001; 0.001; 0.1; 10. ];
  let text = Obs.Prom.expose ~prefix:"t.prom." () in
  (* names sanitized, TYPE lines present *)
  check_true "counter TYPE" (contains text "# TYPE t_prom_hits counter");
  check_true "gauge TYPE" (contains text "# TYPE t_prom_depth gauge");
  check_true "histogram TYPE" (contains text "# TYPE t_prom_lat histogram");
  (* label values escaped: backslash, quote, newline *)
  check_true "label escaping"
    (contains text {|a="qu\"ote\\back\nnl"|});
  (* labels render sorted (a before z) *)
  check_true "label ordering" (contains text {|t_prom_hits{a=|});
  check_close "counter value" 42. (sample_value text "t_prom_hits{");
  check_close "gauge value" 3.5 (sample_value text "t_prom_depth ");
  (* histogram: cumulative buckets, +Inf equals count, sum and count *)
  check_close "bucket cumulative count is total" 4.
    (sample_value text {|t_prom_lat_bucket{le="+Inf"}|});
  check_close "histogram count" 4. (sample_value text "t_prom_lat_count");
  check_close "histogram sum" 10.102 (sample_value text "t_prom_lat_sum");
  let bucket_counts =
    List.filter_map
      (fun l ->
        if
          String.length l > 18
          && String.sub l 0 18 = {|t_prom_lat_bucket{|}
        then
          String.rindex_opt l ' '
          |> Option.map (fun i ->
                 float_of_string (String.sub l (i + 1) (String.length l - i - 1)))
        else None)
      (prom_lines text)
  in
  check_true "at least underflow-free buckets + Inf" (List.length bucket_counts >= 2);
  check_true "bucket counts are non-decreasing"
    (fst
       (List.fold_left
          (fun (ok, prev) v -> (ok && v >= prev, v))
          (true, Float.neg_infinity) bucket_counts))

let test_prom_name_sanitization () =
  Alcotest.(check string) "dots to underscores" "service_requests_solved"
    (Obs.Prom.sanitize_name "service.requests.solved");
  Alcotest.(check string) "leading digit prefixed" "_9lives"
    (Obs.Prom.sanitize_name "9lives");
  Alcotest.(check string) "empty name" "_" (Obs.Prom.sanitize_name "");
  Alcotest.(check string) "escape" {|a\\b\"c\nd|}
    (Obs.Prom.escape_label_value "a\\b\"c\nd")

(* ------------------------------------------------------------------ *)
(* bench diff *)

let bench_record figs =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "bench.v1");
      ( "figures",
        Obs.Json.Arr
          (List.map
             (fun (id, seconds, roots, evals) ->
               Obs.Json.Obj
                 [
                   ("id", Obs.Json.Str id);
                   ("seconds", Obs.Json.Num seconds);
                   ("root_calls", Obs.Json.Num roots);
                   ("objective_evaluations", Obs.Json.Num evals);
                 ])
             figs) );
    ]

let test_bench_diff_identical () =
  let r = bench_record [ ("fig4", 1.0, 1000., 5e4); ("fig7", 2.0, 2000., 9e4) ] in
  match Obs.Bench_diff.diff ~baseline:r ~current:r () with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
    check_true "identical records pass" (Obs.Bench_diff.ok report);
    Alcotest.(check int) "no regressions" 0
      (List.length (Obs.Bench_diff.regressions report));
    Alcotest.(check (list string)) "both figures compared" [ "fig4"; "fig7" ]
      (List.sort compare report.Obs.Bench_diff.compared)

let test_bench_diff_detects_slowdown () =
  let baseline = bench_record [ ("fig4", 1.0, 1000., 5e4); ("fig7", 2.0, 2000., 9e4) ] in
  let current =
    Obs.Bench_diff.scale_seconds baseline ~by:[ ("fig7", 2.0) ]
  in
  match Obs.Bench_diff.diff ~baseline ~current () with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
    check_true "2x slowdown fails the gate" (not (Obs.Bench_diff.ok report));
    (match Obs.Bench_diff.regressions report with
    | [ v ] ->
      Alcotest.(check string) "figure" "fig7" v.Obs.Bench_diff.figure;
      Alcotest.(check string) "metric" "seconds" v.Obs.Bench_diff.metric;
      check_close "current doubled" 4.0 v.Obs.Bench_diff.current;
      check_true "above the allowed band"
        (v.Obs.Bench_diff.current > v.Obs.Bench_diff.allowed)
    | vs -> Alcotest.failf "expected exactly one regression, got %d" (List.length vs));
    (* speedups never regress *)
    let faster = Obs.Bench_diff.scale_seconds baseline ~by:[ ("fig7", 0.25) ] in
    (match Obs.Bench_diff.diff ~baseline ~current:faster () with
    | Ok r -> check_true "faster is fine" (Obs.Bench_diff.ok r)
    | Error msg -> Alcotest.fail msg)

let test_bench_diff_counts_and_skew () =
  let baseline = bench_record [ ("fig4", 1.0, 1000., 5e4); ("gone", 1.0, 10., 10.) ] in
  let current = bench_record [ ("fig4", 1.0, 2000., 5e4); ("new", 1.0, 10., 10.) ] in
  match Obs.Bench_diff.diff ~baseline ~current () with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
    (match Obs.Bench_diff.regressions report with
    | [ v ] ->
      Alcotest.(check string) "deterministic count regressed" "root_calls"
        v.Obs.Bench_diff.metric
    | vs -> Alcotest.failf "expected one regression, got %d" (List.length vs));
    Alcotest.(check (list string)) "id skew: baseline side" [ "gone" ]
      report.Obs.Bench_diff.only_in_baseline;
    Alcotest.(check (list string)) "id skew: current side" [ "new" ]
      report.Obs.Bench_diff.only_in_current;
    check_true "skew alone is not a regression, but gate reports it"
      (not (Obs.Bench_diff.ok report)
       || Obs.Bench_diff.regressions report <> []);
    let t = Obs.Bench_diff.table report in
    check_true "table mentions the regression"
      (contains (Report.Table.to_string t) "REGRESSED");
    check_true "summary mentions skew"
      (contains (Obs.Bench_diff.summary report) "gone")

let test_bench_diff_errors () =
  (match Obs.Bench_diff.diff ~baseline:(Obs.Json.Obj []) ~current:(bench_record []) () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "record without figures must be rejected");
  match Obs.Bench_diff.load_file ~path:"/nonexistent/bench.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must be an Error"

(* ------------------------------------------------------------------ *)
(* histogram boundary behaviour (pins the interpolation fix) *)

let test_histogram_point_masses () =
  List.iter
    (fun v ->
      Obs.Metrics.reset ~prefix:"t.point." ();
      let h = Obs.Metrics.histogram "t.point.h" in
      for _ = 1 to 100 do
        Obs.Metrics.observe h v
      done;
      List.iter
        (fun p ->
          check_close
            (Printf.sprintf "point mass at %g: p%g exact" v p)
            v
            (Obs.Metrics.percentile h p))
        [ 1.; 50.; 99.; 100. ])
    [ 1.0; 1e-3; 1e3 ]

let test_histogram_extreme_values () =
  Obs.Metrics.reset ~prefix:"t.extreme." ();
  let h = Obs.Metrics.histogram "t.extreme.h" in
  (* below, at and beyond the bucketed range: must clamp, never crash *)
  List.iter (Obs.Metrics.observe h) [ 1e-12; 1e-9; 1.0; 1e9; 1e12 ];
  List.iter
    (fun p ->
      let v = Obs.Metrics.percentile h p in
      check_true (Printf.sprintf "p%g finite" p) (Float.is_finite v);
      check_true "within observed range" (v >= 1e-12 && v <= 1e12))
    [ 0.; 10.; 50.; 90.; 100. ];
  let s = Obs.Metrics.summarize h in
  Alcotest.(check int) "all observations counted" 5 s.Obs.Metrics.count;
  check_true "cumulative bucket edges cover the count"
    (match List.rev s.Obs.Metrics.buckets_le with
    | (_, last) :: _ -> last = s.Obs.Metrics.count
    | [] -> false)

(* ------------------------------------------------------------------ *)
(* metrics across domains *)

(* the fields of two summaries that differ: everything exact except
   [sum], whose addition order follows the split across domains *)
let summary_diffs (a : Obs.Metrics.summary) (b : Obs.Metrics.summary) =
  let same_float x y = Float.equal x y in
  List.filter_map
    (fun (field, same) -> if same then None else Some field)
    [
      ("count", a.count = b.count);
      ("min", same_float a.min b.min);
      ("max", same_float a.max b.max);
      ("p50", same_float a.p50 b.p50);
      ("p90", same_float a.p90 b.p90);
      ("p99", same_float a.p99 b.p99);
      ("buckets", a.buckets = b.buckets);
      ("buckets_le", a.buckets_le = b.buckets_le);
      ( "sum",
        Float.abs (a.sum -. b.sum)
        <= 1e-12 *. Float.max (Float.abs a.sum) (Float.abs b.sum) );
    ]

let await cond = while not (cond ()) do Domain.cpu_relax () done

(* domain [d]'s [i]-th sample: eight decades plus an underflow zero *)
let shard_sample d i =
  if i mod 997 = 0 then 0.
  else float_of_int ((((i * 7919) + (d * 104729)) mod 100_000) + 1) *. 1e-7

let test_metrics_exact_across_domains () =
  Obs.Metrics.reset ~prefix:"t.shard" ();
  let domains = 4 and per_domain = 100_000 in
  let c = Obs.Metrics.counter ~labels:[ ("part", "a") ] "t.shard.c" in
  let c_b = Obs.Metrics.counter ~labels:[ ("part", "b") ] "t.shard.c" in
  let h = Obs.Metrics.histogram "t.shard.h" in
  let late = Atomic.make None in
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  let release = Atomic.make false in
  let worker d () =
    Obs.Metrics.incr c;
    Obs.Metrics.observe h (shard_sample d 0);
    Atomic.incr started;
    (* a series registered after this domain's first writes *)
    await (fun () -> Option.is_some (Atomic.get late));
    let late = Option.get (Atomic.get late) in
    for i = 1 to per_domain - 1 do
      Obs.Metrics.incr c;
      Obs.Metrics.incr ~by:2. c_b;
      Obs.Metrics.observe h (shard_sample d i);
      Obs.Metrics.incr late
    done;
    Atomic.incr finished;
    await (fun () -> Atomic.get release);
    (* one write after the reset below: the zeroed block still counts *)
    Obs.Metrics.incr c
  in
  let spawned = List.init domains (fun d -> Domain.spawn (worker d)) in
  await (fun () -> Atomic.get started = domains);
  Atomic.set late (Some (Obs.Metrics.counter "t.shard.late"));
  await (fun () -> Atomic.get finished = domains);
  (* the single-domain reference: the same samples from this domain *)
  let h1 = Obs.Metrics.histogram "t.shard1.h" in
  for d = 0 to domains - 1 do
    for i = 0 to per_domain - 1 do
      Obs.Metrics.observe h1 (shard_sample d i)
    done
  done;
  let n = float_of_int (domains * per_domain) in
  Alcotest.(check (float 0.)) "counter_value" n (Obs.Metrics.counter_value c);
  Alcotest.(check (float 0.))
    "late series" (n -. float_of_int domains)
    (Obs.Metrics.counter_value (Obs.Metrics.counter "t.shard.late"));
  Alcotest.(check (float 0.))
    "sum_counters over both label sets"
    (n +. (2. *. (n -. float_of_int domains)))
    (Obs.Metrics.sum_counters "t.shard.c");
  Alcotest.(check (list string))
    "summary equals the single-domain one" []
    (summary_diffs (Obs.Metrics.summarize h1) (Obs.Metrics.summarize h));
  check_close ~tol:1e-12 "sum_histograms"
    (Obs.Metrics.sum_histograms "t.shard1.h")
    (Obs.Metrics.sum_histograms "t.shard.h");
  Obs.Metrics.reset ~prefix:"t.shard." ();
  Alcotest.(check (float 0.)) "reset zeroes every domain" 0. (Obs.Metrics.sum_counters "t.shard.c");
  Alcotest.(check int) "reset empties the histogram" 0 (Obs.Metrics.summarize h).count;
  Atomic.set release true;
  List.iter Domain.join spawned;
  Alcotest.(check (float 0.))
    "writes after the reset, from exited domains" (float_of_int domains)
    (Obs.Metrics.counter_value c);
  Alcotest.(check (float 0.))
    "late series stays reset" 0.
    (Obs.Metrics.counter_value (Obs.Metrics.counter "t.shard.late"))

let sample_gen =
  QCheck2.Gen.(
    oneof
      [
        return 0.;
        float_range 1e-12 1e-9;
        map (fun e -> Float.pow 10. e) (float_range (-9.) 9.5);
      ])

let prop_split_across_domains =
  prop ~count:40 "any split across domains summarizes like one domain"
    QCheck2.Gen.(list_size (int_range 0 200) (pair sample_gen (int_range 0 3)))
    (fun samples ->
      Obs.Metrics.reset ~prefix:"t.split." ();
      let one = Obs.Metrics.histogram "t.split.one" in
      let many = Obs.Metrics.histogram "t.split.many" in
      List.iter (fun (x, _) -> Obs.Metrics.observe one x) samples;
      List.init 4 (fun d ->
          Domain.spawn (fun () ->
              List.iter
                (fun (x, owner) -> if owner = d then Obs.Metrics.observe many x)
                samples))
      |> List.iter Domain.join;
      summary_diffs (Obs.Metrics.summarize one) (Obs.Metrics.summarize many) = [])

let test_metrics_survive_domain_exit () =
  Obs.Metrics.reset ~prefix:"t.exit." ();
  let c = Obs.Metrics.counter "t.exit.c" in
  let h = Obs.Metrics.histogram "t.exit.h" in
  let per_task = 1000 in
  for cycle = 1 to 50 do
    let pool = Parallel.Pool.create ~domains:2 () in
    let running = Atomic.make 0 in
    (* two tasks that wait for each other, so the worker domain runs one *)
    let task () =
      Atomic.incr running;
      await (fun () -> Atomic.get running >= 2);
      for _ = 1 to per_task do
        Obs.Metrics.incr c
      done;
      Obs.Metrics.observe h 1e-3
    in
    Parallel.Pool.run_tasks pool [| task; task |];
    Parallel.Pool.shutdown pool;
    let snapshot = Obs.Metrics.snapshot ~prefix:"t.exit." () in
    Alcotest.(check int) "both series in the snapshot" 2 (List.length snapshot);
    Alcotest.(check (float 0.))
      (Printf.sprintf "counter after cycle %d" cycle)
      (float_of_int (2 * per_task * cycle))
      (Obs.Metrics.counter_value c);
    Alcotest.(check int)
      (Printf.sprintf "histogram count after cycle %d" cycle)
      (2 * cycle) (Obs.Metrics.summarize h).count
  done;
  (* exit hooks run last-registered first: this one, registered before
     the domain's first write, runs after its blocks were retired *)
  let late = Obs.Metrics.counter "t.exit.late" in
  Domain.join
    (Domain.spawn (fun () ->
         Domain.at_exit (fun () -> Obs.Metrics.incr late);
         Obs.Metrics.incr late));
  Alcotest.(check (float 0.)) "a write from a later exit hook counts" 2.
    (Obs.Metrics.counter_value late)

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ quick "monotone non-decreasing" test_clock_monotone ] );
      ( "metrics",
        [
          quick "counter label merging" test_counter_label_merging;
          quick "kind conflict rejected" test_kind_conflict;
          quick "reset keeps handles live" test_reset_in_place;
          quick "percentiles: uniform 1..1000" test_histogram_percentiles_uniform;
          quick "percentiles: bimodal latency" test_histogram_percentiles_bimodal;
          quick "underflow bucket" test_histogram_underflow;
          quick "percentiles: point masses exact" test_histogram_point_masses;
          quick "percentiles: extreme decades clamp" test_histogram_extreme_values;
        ] );
      ( "domains",
        [
          quick "totals exact across 4 domains" test_metrics_exact_across_domains;
          prop_split_across_domains;
          quick "counts of exited domains survive" test_metrics_survive_domain_exit;
        ] );
      ( "log",
        [
          quick "level and module filtering" test_log_levels;
          quick "level names parse" test_log_level_names;
          quick "rate-limited repeats coalesce and drain" test_log_rate_limit;
          quick "jsonl rendering round-trips" test_log_jsonl_round_trip;
        ] );
      ( "series",
        [
          quick "ring wraparound" test_series_wraparound;
          quick "tick derives rates and quantile tracks" test_series_tick_rates;
          quick "windowed aggregation" test_series_window;
          quick "concurrent ticks stay bounded" test_series_concurrent_ticks;
        ] );
      ( "prom",
        [
          quick "exposition format" test_prom_exposition;
          quick "name sanitization and escaping" test_prom_name_sanitization;
        ] );
      ( "bench_diff",
        [
          quick "identical records pass" test_bench_diff_identical;
          quick "2x slowdown detected" test_bench_diff_detects_slowdown;
          quick "count regressions and id skew" test_bench_diff_counts_and_skew;
          quick "malformed inputs are errors" test_bench_diff_errors;
        ] );
      ( "trace",
        [
          quick "nesting and ordering" test_span_nesting;
          quick "disabled tracing buffers nothing" test_span_disabled_is_free;
          quick "span closed on exception" test_span_closed_on_exception;
          quick "attributes" test_span_attrs;
        ] );
      ( "json",
        [
          quick "value round trip" test_json_round_trip;
          quick "trace export round trip" test_trace_json_round_trip;
          quick "metrics export round trip" test_metrics_json_round_trip;
        ] );
      ( "integration",
        [
          quick "nash solve traces every layer" test_nash_trace_all_layers;
          quick "per-run telemetry scoping" test_per_run_stats_scoping;
        ] );
    ]
