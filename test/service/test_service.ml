(* Tests for the solve daemon: wire protocol, cache, admission queue,
   journal recovery, the served solve path, forked end-to-end scenarios
   (a full request mix, a SIGKILL-mid-load restart on the same journal,
   fleet failover) and the fleet supervisor. Every daemon is forked
   through [Service.Fleet]. The forked children never inherit a worker
   pool: the parent process must not create one before forking
   (domains do not survive [fork]), so every in-parent test uses
   [Server.solve_one] / pure module APIs only and the children size
   their own pool. *)

open Test_helpers
module P = Service.Proto
module Sv = Service.Server
module Cl = Service.Client
module Ca = Service.Cache
module Q = Service.Queue_guard
module J = Service.Journal
module Fleet = Service.Fleet
open Service_fixtures

let get_ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* string-typed shims over the typed client errors: the assertions in
   this file only ever print them *)
let call client req = Result.map_error Cl.error_to_string (Cl.call client req)
let send client req = Result.map_error Cl.error_to_string (Cl.send client req)

let read_response client =
  Result.map_error Cl.error_to_string (Cl.read_response client)

let mk_market ?(price = 0.8) ?(cap = 0.5) ?(capacity = 1.0)
    ?(names = [| "a"; "b" |]) () =
  let cps =
    Array.map
      (fun name -> Econ.Cp.exponential ~name ~alpha:1.0 ~beta:1.0 ~value:1.2 ())
      names
  in
  { P.capacity; price; cap; cps }

let mk_solved ?(subsidies = [| 0.1; 0.2 |]) () =
  {
    P.subsidies;
    phi = 0.5;
    aggregate = 1.0;
    revenue = 0.8;
    converged = true;
    sweeps = 3;
    kkt_residual = 1e-9;
    cache = P.Cold;
    solve_s = 0.01;
  }

(* Proto: framing round-trips ---------------------------------------- *)

(* Markets hold [Econ.Cp.t] closures, so parsed values cannot be
   compared structurally; the canonical compact rendering can. *)
let roundtrip_request line_of r =
  let line = P.request_to_line r in
  match P.request_of_line line with
  | Ok r' -> Alcotest.(check string) (line_of ^ " round-trips") line (P.request_to_line r')
  | Error reason ->
    Alcotest.failf "%s rejected: %s" line_of (P.reject_to_string reason)

let test_request_roundtrips () =
  roundtrip_request "ping" P.Ping;
  roundtrip_request "shutdown" P.Shutdown;
  roundtrip_request "metrics" (P.Metrics { prefix = "" });
  roundtrip_request "metrics-prefix" (P.Metrics { prefix = "service." });
  roundtrip_request "metrics-prom" (P.Metrics_prom { prefix = "" });
  roundtrip_request "metrics-prom-prefix" (P.Metrics_prom { prefix = "service." });
  roundtrip_request "solve"
    (P.Solve { id = "r1"; market = mk_market (); params = P.no_params });
  roundtrip_request "solve-params"
    (P.Solve
       {
         id = "r2";
         market = mk_market ~names:[| "solo" |] ();
         params = { P.deadline_s = Some 2.5; max_evals = Some 10_000 };
       })

let test_chaos_roundtrips () =
  roundtrip_request "chaos-off" (P.Chaos { mode = None });
  List.iter
    (fun (s : Runner.Chaos.scenario) ->
      roundtrip_request ("chaos-" ^ s.Runner.Chaos.name)
        (P.Chaos { mode = Some s.Runner.Chaos.mode }))
    Runner.Chaos.default_scenarios;
  check_true "off maps to clear" (P.chaos_mode_of_name "off" = Ok None);
  (match P.chaos_mode_of_name "definitely-not-a-mode" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown chaos mode accepted");
  List.iter
    (fun (s : Runner.Chaos.scenario) ->
      match P.chaos_mode_of_name s.Runner.Chaos.name with
      | Ok (Some mode) ->
        Alcotest.(check string) "mode name round-trips" s.Runner.Chaos.name
          (P.chaos_mode_name mode)
      | Ok None -> Alcotest.failf "%s mapped to off" s.Runner.Chaos.name
      | Error msg -> Alcotest.failf "%s: %s" s.Runner.Chaos.name msg)
    Runner.Chaos.default_scenarios

let roundtrip_response label r =
  let line = P.response_to_line r in
  match P.response_of_line line with
  | Ok r' -> Alcotest.(check string) (label ^ " round-trips") line (P.response_to_line r')
  | Error msg -> Alcotest.failf "%s unparsable: %s" label msg

let test_response_roundtrips () =
  roundtrip_response "solved" (P.Solved { id = "r1"; result = mk_solved () });
  roundtrip_response "solved-warm"
    (P.Solved { id = "r2"; result = { (mk_solved ()) with P.cache = P.Warm } });
  roundtrip_response "degraded" (P.Degraded { id = "r3"; reason = "deadline exceeded" });
  roundtrip_response "shed" (P.Shed { id = "r4"; depth = 64; capacity = 64 });
  roundtrip_response "rejected-malformed"
    (P.Rejected { id = None; reason = P.Malformed_frame "bad json" });
  roundtrip_response "rejected-oversized"
    (P.Rejected { id = None; reason = P.Oversized_frame { bytes = 2048; limit = 1024 } });
  roundtrip_response "rejected-market"
    (P.Rejected { id = Some "r5"; reason = P.Bad_market "capacity must be positive" });
  roundtrip_response "rejected-unsupported"
    (P.Rejected { id = None; reason = P.Unsupported "dance" });
  roundtrip_response "rejected-chaos" (P.Rejected { id = Some "r6"; reason = P.Chaos_disabled });
  roundtrip_response "metrics"
    (P.Metrics_snapshot (Obs.Json.Obj [ ("schema", Obs.Json.Str "obs.metrics.v1") ]));
  (* exposition text is newline- and quote-heavy: the frame must escape
     it into a single wire line and round-trip it byte-for-byte *)
  roundtrip_response "prom-text"
    (P.Prom_text "# TYPE a counter\na{l=\"x y\",m=\"q\\\"z\"} 1\n");
  roundtrip_response "chaos-ack" (P.Chaos_ack { mode = "spike" });
  roundtrip_response "pong" P.Pong;
  roundtrip_response "bye" P.Bye

let expect_reject label line check =
  match P.request_of_line line with
  | Ok _ -> Alcotest.failf "%s: accepted" label
  | Error reason ->
    if not (check reason) then
      Alcotest.failf "%s: wrong rejection %s" label (P.reject_to_string reason)

let test_malformed_frames () =
  expect_reject "raw text" "this is not json" (function
    | P.Malformed_frame _ -> true
    | _ -> false);
  expect_reject "truncated json" "{\"type\":\"solve\"" (function
    | P.Malformed_frame _ -> true
    | _ -> false);
  expect_reject "missing type" "{}" (function
    | P.Malformed_frame _ -> true
    | _ -> false);
  expect_reject "unknown type" "{\"type\":\"dance\"}" (function
    | P.Unsupported "dance" -> true
    | _ -> false);
  expect_reject "unknown chaos mode" "{\"type\":\"chaos\",\"mode\":\"nope\"}"
    (function
      | P.Malformed_frame _ -> true
      | _ -> false)

let solve_line_with_market market_json =
  Obs.Json.to_string
    (Obs.Json.Obj
       [ ("type", Obs.Json.Str "solve"); ("id", Obs.Json.Str "bad"); ("market", market_json) ])

let test_bad_markets () =
  let cps_json = Experiments.Market_io.json_of_cps (mk_market ()).P.cps in
  let market ?(capacity = 1.0) ?(price = 0.8) ?(cap = 0.5) ?(cps = cps_json) () =
    Obs.Json.Obj
      [
        ("capacity", Obs.Json.Num capacity);
        ("price", Obs.Json.Num price);
        ("cap", Obs.Json.Num cap);
        ("cps", cps);
      ]
  in
  let bad label json =
    expect_reject label (solve_line_with_market json) (function
      | P.Bad_market _ -> true
      | _ -> false)
  in
  bad "non-positive capacity" (market ~capacity:0. ());
  bad "negative price" (market ~price:(-0.1) ());
  bad "negative cap" (market ~cap:(-1.) ());
  bad "empty population" (market ~cps:(Obs.Json.Arr []) ());
  bad "negative alpha"
    (market
       ~cps:
         (Obs.Json.Arr
            [
              Obs.Json.Obj
                [
                  ("name", Obs.Json.Str "a");
                  ("alpha", Obs.Json.Num (-2.));
                  ("beta", Obs.Json.Num 1.);
                  ("value", Obs.Json.Num 1.);
                ];
            ])
       ());
  (* a valid market on the same code path, as a control *)
  match P.request_of_line (solve_line_with_market (market ())) with
  | Ok (P.Solve { id = "bad"; _ }) -> ()
  | Ok _ -> Alcotest.fail "control market decoded to the wrong request"
  | Error reason -> Alcotest.failf "control market rejected: %s" (P.reject_to_string reason)

let test_oversized_frame () =
  let line = String.make 100 'x' in
  match P.request_of_line ~max_frame_bytes:32 line with
  | Error (P.Oversized_frame { bytes = 100; limit = 32 }) -> ()
  | Error reason -> Alcotest.failf "wrong rejection: %s" (P.reject_to_string reason)
  | Ok _ -> Alcotest.fail "oversized frame accepted"

(* Market_io JSON codec ---------------------------------------------- *)

let test_market_io_json_roundtrip () =
  let cps = (mk_market ~names:[| "alpha"; "beta"; "gamma" |] ()).P.cps in
  let json = Experiments.Market_io.json_of_cps cps in
  match Experiments.Market_io.cps_of_json ~path:"wire" json with
  | Error e -> Alcotest.failf "round-trip failed: %s" (Experiments.Market_io.error_to_string e)
  | Ok cps' ->
    Alcotest.(check int) "population size" (Array.length cps) (Array.length cps');
    Alcotest.(check string) "canonical JSON survives"
      (Obs.Json.to_string json)
      (Obs.Json.to_string (Experiments.Market_io.json_of_cps cps'))

let test_market_io_json_errors () =
  let cp ?(name = "a") ?(alpha = 1.) ?(beta = 1.) ?(value = 1.) () =
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str name);
        ("alpha", Obs.Json.Num alpha);
        ("beta", Obs.Json.Num beta);
        ("value", Obs.Json.Num value);
      ]
  in
  let expect label json ~row ~field =
    match Experiments.Market_io.cps_of_json ~path:"wire" json with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error e ->
      Alcotest.(check (option int)) (label ^ " row") row e.Experiments.Market_io.row;
      Alcotest.(check (option string)) (label ^ " field") field e.Experiments.Market_io.field
  in
  expect "bad alpha in second element"
    (Obs.Json.Arr [ cp (); cp ~name:"b" ~alpha:(-1.) () ])
    ~row:(Some 2) ~field:(Some "alpha");
  expect "duplicate names"
    (Obs.Json.Arr [ cp (); cp () ])
    ~row:(Some 2) ~field:(Some "name");
  expect "not an array" (Obs.Json.Str "nope") ~row:None ~field:None

(* Cache ------------------------------------------------------------- *)

let test_cache_fingerprints () =
  let m = mk_market () in
  Alcotest.(check string) "fingerprint is deterministic" (Ca.fingerprint m)
    (Ca.fingerprint (mk_market ()));
  check_true "price changes the fingerprint"
    (Ca.fingerprint m <> Ca.fingerprint { m with P.price = m.P.price +. 1e-9 });
  Alcotest.(check string) "population ignores the scalar knobs"
    (Ca.population_fingerprint m)
    (Ca.population_fingerprint { m with P.price = 1.4; cap = 0.9; capacity = 3. });
  check_true "population sees the CPs"
    (Ca.population_fingerprint m
    <> Ca.population_fingerprint (mk_market ~names:[| "a"; "b"; "c" |] ()))

let test_cache_hit_and_stats () =
  let cache = Ca.create ~capacity:4 in
  let m = mk_market () in
  let fp = Ca.fingerprint m in
  check_true "miss before store" (Ca.find cache ~fingerprint:fp = None);
  Ca.store cache ~market:m ~fingerprint:fp (mk_solved ());
  (match Ca.find cache ~fingerprint:fp with
  | Some solved ->
    check_true "cache hits are tagged" (solved.P.cache = P.Hit);
    check_close "payload survives" 0.2 solved.P.subsidies.(1)
  | None -> Alcotest.fail "stored entry not found");
  let s = Ca.stats cache in
  Alcotest.(check int) "one hit" 1 s.Ca.hits;
  Alcotest.(check int) "one miss" 1 s.Ca.misses;
  Alcotest.(check int) "size" 1 (Ca.size cache)

let test_cache_lru_eviction () =
  let cache = Ca.create ~capacity:2 in
  let m1 = mk_market ~price:0.1 () in
  let m2 = mk_market ~price:0.2 () in
  let m3 = mk_market ~price:0.3 () in
  let fp m = Ca.fingerprint m in
  Ca.store cache ~market:m1 ~fingerprint:(fp m1) (mk_solved ());
  Ca.store cache ~market:m2 ~fingerprint:(fp m2) (mk_solved ());
  (* touch m1 so m2 is the least recently used *)
  check_true "m1 touchable" (Ca.find cache ~fingerprint:(fp m1) <> None);
  Ca.store cache ~market:m3 ~fingerprint:(fp m3) (mk_solved ());
  Alcotest.(check int) "bounded" 2 (Ca.size cache);
  check_true "LRU entry evicted" (Ca.find cache ~fingerprint:(fp m2) = None);
  check_true "recently used survives" (Ca.find cache ~fingerprint:(fp m1) <> None);
  check_true "newcomer present" (Ca.find cache ~fingerprint:(fp m3) <> None);
  Alcotest.(check int) "one eviction" 1 (Ca.stats cache).Ca.evictions

let test_cache_warm_start () =
  let cache = Ca.create ~capacity:8 in
  let near = mk_market ~price:0.5 () in
  let far = mk_market ~price:1.4 () in
  Ca.store cache ~market:near ~fingerprint:(Ca.fingerprint near)
    (mk_solved ~subsidies:[| 0.11; 0.12 |] ());
  Ca.store cache ~market:far ~fingerprint:(Ca.fingerprint far)
    (mk_solved ~subsidies:[| 0.91; 0.92 |] ());
  (* a query near price 0.55 must seed from the nearest same-population
     entry, and only from the same population *)
  (match Ca.warm_start cache (mk_market ~price:0.55 ()) with
  | Some seed -> check_close "nearest neighbour wins" 0.11 seed.(0)
  | None -> Alcotest.fail "no warm start for a known population");
  (match Ca.warm_start cache (mk_market ~price:1.35 ()) with
  | Some seed -> check_close "distance is over all knobs" 0.91 seed.(0)
  | None -> Alcotest.fail "no warm start for a known population");
  check_true "foreign population never seeds"
    (Ca.warm_start cache (mk_market ~names:[| "x"; "y" |] ()) = None);
  Alcotest.(check int) "warm seeds counted" 2 (Ca.stats cache).Ca.warm_seeds

(* Fingerprint properties ------------------------------------------- *)

(* Every demand x throughput family pair once, parameters drawn from
   [rng]: the CPs the wire format cannot carry but the cache must key. *)
let family_cps rng =
  let u () = Numerics.Rng.uniform rng ~lo:0.5 ~hi:2.5 in
  let demands =
    [
      (fun () -> Econ.Demand.Exponential { m0 = u (); alpha = u () });
      (fun () -> Econ.Demand.Isoelastic { m0 = u (); alpha = u (); scale = u () });
      (fun () -> Econ.Demand.Logit { m0 = u (); slope = u (); midpoint = u () });
    ]
  and throughputs =
    [
      (fun () -> Econ.Throughput.Exponential { l0 = u (); beta = u () });
      (fun () -> Econ.Throughput.Isoelastic { l0 = u (); beta = u () });
      (fun () -> Econ.Throughput.Rational { l0 = u (); beta = u () });
    ]
  in
  List.concat_map
    (fun demand -> List.map (fun throughput -> (demand, throughput)) throughputs)
    demands
  |> List.mapi (fun i (demand, throughput) ->
         Econ.Cp.make ~name:(Printf.sprintf "f%d" i)
           ~demand:(Econ.Demand.make (demand ()))
           ~throughput:(Econ.Throughput.make (throughput ()))
           ~value:(u ()) ())
  |> Array.of_list

(* Per QCheck seed, split draws: a few wire-shaped Loadgen markets and
   one market holding every family pair. *)
let markets_gen =
  QCheck2.Gen.map
    (fun rng ->
      let draws = Numerics.Rng.split_n rng 4 in
      let wire =
        List.map Service.Loadgen.random_market [ draws.(0); draws.(1); draws.(2) ]
      in
      let families =
        { (Service.Loadgen.random_market draws.(3)) with P.cps = family_cps draws.(3) }
      in
      (wire, families))
    rng_gen

(* Every market one parameter away: each scalar knob and each CP
   parameter moved to its [Float.succ], each CP renamed, each demand
   and throughput family swapped for another. The flag says whether the
   change touches the population. *)
let one_step_variants (m : P.market) =
  let s = Float.succ in
  let knobs =
    [
      { m with P.capacity = s m.P.capacity };
      { m with P.price = s m.P.price };
      { m with P.cap = s m.P.cap };
    ]
  in
  let demands = function
    | Econ.Demand.Exponential { m0; alpha } ->
      Econ.Demand.
        [
          Exponential { m0 = s m0; alpha };
          Exponential { m0; alpha = s alpha };
          Isoelastic { m0; alpha; scale = 1. };
        ]
    | Econ.Demand.Isoelastic { m0; alpha; scale } ->
      Econ.Demand.
        [
          Isoelastic { m0 = s m0; alpha; scale };
          Isoelastic { m0; alpha = s alpha; scale };
          Isoelastic { m0; alpha; scale = s scale };
          Exponential { m0; alpha };
        ]
    | Econ.Demand.Logit { m0; slope; midpoint } ->
      Econ.Demand.
        [
          Logit { m0 = s m0; slope; midpoint };
          Logit { m0; slope = s slope; midpoint };
          Logit { m0; slope; midpoint = s midpoint };
          Isoelastic { m0; alpha = slope; scale = midpoint };
        ]
  in
  let throughputs = function
    | Econ.Throughput.Exponential { l0; beta } ->
      Econ.Throughput.
        [
          Exponential { l0 = s l0; beta };
          Exponential { l0; beta = s beta };
          Isoelastic { l0; beta };
        ]
    | Econ.Throughput.Isoelastic { l0; beta } ->
      Econ.Throughput.
        [
          Isoelastic { l0 = s l0; beta };
          Isoelastic { l0; beta = s beta };
          Rational { l0; beta };
        ]
    | Econ.Throughput.Rational { l0; beta } ->
      Econ.Throughput.
        [
          Rational { l0 = s l0; beta };
          Rational { l0; beta = s beta };
          Exponential { l0; beta };
        ]
  in
  let with_cp i cp =
    let cps = Array.copy m.P.cps in
    cps.(i) <- cp;
    { m with P.cps }
  in
  let population =
    List.concat
      (List.mapi
         (fun i (cp : Econ.Cp.t) ->
           (with_cp i { cp with Econ.Cp.name = cp.Econ.Cp.name ^ "'" })
           :: with_cp i { cp with Econ.Cp.value = s cp.Econ.Cp.value }
           :: List.map
                (fun d -> with_cp i { cp with Econ.Cp.demand = Econ.Demand.make d })
                (demands (Econ.Demand.spec cp.Econ.Cp.demand))
           @ List.map
               (fun t -> with_cp i { cp with Econ.Cp.throughput = Econ.Throughput.make t })
               (throughputs (Econ.Throughput.spec cp.Econ.Cp.throughput)))
         (Array.to_list m.P.cps))
  in
  List.map (fun v -> (false, v)) knobs @ List.map (fun v -> (true, v)) population

let all_markets (wire, families) = families :: wire

(* A fleet client routes on the market it holds and the daemon keys
   the one it decoded, so both must fingerprint alike. *)
let prop_fingerprint_survives_the_wire =
  prop ~count:200 "cache: fingerprint survives request_to_line/of_line" markets_gen
    (fun (wire, _) ->
      List.for_all
        (fun market ->
          let line =
            P.request_to_line (P.Solve { id = "q"; market; params = P.no_params })
          in
          match P.request_of_line line with
          | Ok (P.Solve { market = decoded; _ }) ->
            String.equal (Ca.fingerprint market) (Ca.fingerprint decoded)
          | Ok _ | Error _ -> false)
        wire)

let prop_one_step_changes_the_key =
  prop ~count:100 "cache: any one-ulp or name change moves the key" markets_gen
    (fun draws ->
      List.for_all
        (fun m ->
          let fp = Ca.fingerprint m and pop = Ca.population_fingerprint m in
          List.for_all
            (fun (touches_population, v) ->
              (not (String.equal fp (Ca.fingerprint v)))
              && Bool.equal touches_population
                   (not (String.equal pop (Ca.population_fingerprint v))))
            (one_step_variants m))
        (all_markets draws))

let prop_population_ignores_knobs =
  prop ~count:200 "cache: population fingerprint ignores price, cap, capacity"
    markets_gen (fun draws ->
      let markets = all_markets draws in
      List.for_all
        (fun (m : P.market) ->
          List.for_all
            (fun (o : P.market) ->
              String.equal (Ca.population_fingerprint m)
                (Ca.population_fingerprint { o with P.cps = m.P.cps }))
            markets)
        markets)

let prop_every_family_fingerprints =
  prop ~count:200 "cache: every demand and throughput family fingerprints"
    markets_gen (fun (_, families) ->
      let hex s = String.length s = 32 in
      (* whole and population keys never coincide *)
      hex (Ca.fingerprint families)
      && hex (Ca.population_fingerprint families)
      && not (String.equal (Ca.fingerprint families) (Ca.population_fingerprint families)))

(* Queue guard ------------------------------------------------------- *)

let test_queue_guard () =
  let q = Q.create ~capacity:2 in
  check_true "admit 1" (Q.admit q "a" = Q.Admitted);
  check_true "admit 2" (Q.admit q "b" = Q.Admitted);
  (match Q.admit q "c" with
  | Q.Refused { depth = 2; capacity = 2 } -> ()
  | Q.Refused { depth; capacity } ->
    Alcotest.failf "refused with depth %d capacity %d" depth capacity
  | Q.Admitted -> Alcotest.fail "admitted beyond capacity");
  Alcotest.(check int) "shed counted" 1 (Q.shed_count q);
  Alcotest.(check (list string)) "FIFO, bounded take" [ "a" ] (Q.take ~max:1 q);
  check_true "freed capacity readmits" (Q.admit q "c" = Q.Admitted);
  Alcotest.(check (list string)) "drain in order" [ "b"; "c" ] (Q.take q);
  Alcotest.(check int) "empty" 0 (Q.depth q)

(* Journal ----------------------------------------------------------- *)

let test_journal_roundtrip () =
  let path = fresh_path ".journal" in
  let j = get_ok (J.open_ ~path ()) in
  get_ok (J.record_received j ~seq:0 ~id:"r0" ~fingerprint:"fp0" ~request_line:"{\"type\":\"ping\"}");
  get_ok (J.record_received j ~seq:1 ~id:"r1" ~fingerprint:"fp1" ~request_line:"line1");
  get_ok (J.record_acked j ~seq:0 ~id:"r0" ~kind:J.Solved);
  J.close j;
  let r = get_ok (J.recover ~path ()) in
  Alcotest.(check int) "no torn lines" 0 r.J.torn_lines;
  Alcotest.(check int) "next seq" 2 r.J.next_seq;
  (match r.J.acked with
  | [ (0, "r0", J.Solved) ] -> ()
  | _ -> Alcotest.fail "acked list wrong");
  (match r.J.pending with
  | [ { J.seq = 1; id = "r1"; request_line = "line1" } ] -> ()
  | _ -> Alcotest.fail "pending list wrong");
  Sys.remove path

let test_journal_missing_file () =
  let r = get_ok (J.recover ~path:(fresh_path ".journal") ()) in
  check_true "empty state" (r.J.pending = [] && r.J.acked = [] && r.J.next_seq = 0)

let test_journal_torn_tail () =
  let path = fresh_path ".journal" in
  let j = get_ok (J.open_ ~path ()) in
  get_ok (J.record_received j ~seq:0 ~id:"r0" ~fingerprint:"fp0" ~request_line:"line0");
  get_ok (J.record_acked j ~seq:0 ~id:"r0" ~kind:J.Degraded);
  get_ok (J.record_received j ~seq:1 ~id:"r1" ~fingerprint:"fp1" ~request_line:"line1");
  J.close j;
  (* a crash mid-append tears the final line *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"ev\":\"acked\",\"se";
  close_out oc;
  let warnings = ref [] in
  let r = get_ok (J.recover ~on_warning:(fun w -> warnings := w :: !warnings) ~path ()) in
  Alcotest.(check int) "torn line counted" 1 r.J.torn_lines;
  check_true "torn line warned" (!warnings <> []);
  (match r.J.acked with
  | [ (0, "r0", J.Degraded) ] -> ()
  | _ -> Alcotest.fail "intact ack lost");
  (match r.J.pending with
  | [ { J.seq = 1; _ } ] -> ()
  | _ -> Alcotest.fail "intact pending record lost");
  Sys.remove path

(* The served solve path -------------------------------------------- *)

let evals_spent () = Obs.Metrics.sum_histograms "solver.evaluations"

let test_solve_one_cache_effectiveness () =
  let cache = Ca.create ~capacity:16 in
  (* asymmetric CPs: the cold solve needs 3+ best-response sweeps, so a
     near-equilibrium seed has sweeps to save (a symmetric population
     already converges in the minimum and shows no difference) *)
  let cps =
    Array.init 4 (fun i ->
        Econ.Cp.exponential
          ~name:(Printf.sprintf "cp%d" i)
          ~alpha:(0.6 +. (0.5 *. float_of_int i))
          ~beta:(0.8 +. (0.3 *. float_of_int i))
          ~value:(0.9 +. (0.4 *. float_of_int i))
          ())
  in
  let market = { P.capacity = 1.0; price = 0.8; cap = 0.5; cps } in
  Numerics.Robust.reset_stats ();
  let cold = get_ok (Sv.solve_one ~cache ~params:P.no_params market) in
  let cold_evals = evals_spent () in
  check_true "first solve is cold" (cold.P.cache = P.Cold);
  check_true "cold solve converged" cold.P.converged;
  check_true "cold solve did real work" (cold_evals > 0.);
  check_close "revenue = price * aggregate" (market.P.price *. cold.P.aggregate)
    cold.P.revenue;
  (* a neighbour in the same population warm-starts and spends fewer
     solver evaluations than the cold solve did *)
  let neighbour = { market with P.price = market.P.price *. 1.001 } in
  Numerics.Robust.reset_stats ();
  let warm = get_ok (Sv.solve_one ~cache ~params:P.no_params neighbour) in
  let warm_evals = evals_spent () in
  check_true "neighbour solve is warm-started" (warm.P.cache = P.Warm);
  check_true "warm solve converged" warm.P.converged;
  check_true
    (Printf.sprintf "warm start is cheaper (%.0f < %.0f evals)" warm_evals cold_evals)
    (warm_evals < cold_evals);
  (* an exact repeat is answered from the cache without any solver work *)
  Numerics.Robust.reset_stats ();
  let hit = get_ok (Sv.solve_one ~cache ~params:P.no_params neighbour) in
  check_true "exact repeat is a hit" (hit.P.cache = P.Hit);
  check_close "a hit costs zero evaluations" 0. (evals_spent ());
  check_close "hit returns the cached equilibrium" warm.P.subsidies.(0)
    hit.P.subsidies.(0)

let test_solve_one_degrades_on_budget () =
  let market = mk_market () in
  let limits = { Runner.Watchdog.deadline_s = None; max_evals = Some 3 } in
  match Sv.solve_one ~limits ~params:P.no_params market with
  | Error reason -> check_true "reason is non-empty" (reason <> "")
  | Ok _ -> Alcotest.fail "a 3-evaluation budget cannot solve an equilibrium"

(* Forked end-to-end daemon ------------------------------------------ *)

(* one daemon on [socket] with a one-domain pool; [warnings], when
   given, is a file each [Warning] the daemon logs is appended to: the
   child inherits this process's log sink *)
let start_daemon ?(allow_chaos = false) ?journal ?snapshot ?warnings ~socket () =
  Option.iter
    (fun path ->
      Obs.Log.set_sink
        (Obs.Log.Custom
           (fun ev ->
             if ev.Obs.Log.level = Obs.Log.Warn then begin
               let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
               output_string oc (ev.Obs.Log.msg ^ "\n");
               close_out oc
             end)))
    warnings;
  let base = Sv.default_config ~address:(Sv.Unix_path socket) in
  let daemon =
    Fleet.start ~jobs:1
      [ { base with Sv.journal_path = journal; snapshot_path = snapshot; allow_chaos } ]
  in
  if warnings <> None then Obs.Log.reset ();
  daemon

let connect address =
  match Fleet.await address with
  | Ok client -> client
  | Error msg -> Alcotest.failf "daemon never came up: %s" msg

let wait_exit ?(shard = 0) fleet =
  match Fleet.wait fleet shard with
  | Some (Unix.WEXITED code) -> code
  | Some (Unix.WSIGNALED s) -> Alcotest.failf "daemon killed by signal %d" s
  | Some (Unix.WSTOPPED _) -> Alcotest.fail "daemon stopped"
  | None -> Alcotest.fail "no daemon to wait for"

(* SIGKILL and reap whatever [fleet] still runs *)
let kill_all fleet ~shards =
  for i = 0 to shards - 1 do
    Fleet.signal fleet i Sys.sigkill;
    ignore (Fleet.wait fleet i)
  done

let with_daemon ?allow_chaos ?journal ?snapshot ?warnings f =
  let socket = fresh_path ".sock" in
  let daemon = start_daemon ?allow_chaos ?journal ?snapshot ?warnings ~socket () in
  let finally () =
    kill_all daemon ~shards:1;
    try Sys.remove socket with Sys_error _ -> ()
  in
  Fun.protect ~finally (fun () -> f ~socket ~daemon)

let read_line_fd fd =
  let b = Bytes.create 1 in
  let buf = Buffer.create 256 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
      if Bytes.get b 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get b 0);
        go ()
      end
  in
  go ()

let test_daemon_end_to_end () =
  with_daemon @@ fun ~socket ~daemon ->
  let address = Sv.Unix_path socket in
  let client = connect address in
  (match call client P.Ping with
  | Ok P.Pong -> ()
  | Ok r -> Alcotest.failf "ping answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "ping failed: %s" msg);
  let market = mk_market () in
  (match call client (P.Solve { id = "e1"; market; params = P.no_params }) with
  | Ok (P.Solved { id = "e1"; result }) ->
    check_true "served solve converged" result.P.converged;
    Alcotest.(check int) "one subsidy per CP" 2 (Array.length result.P.subsidies);
    check_true "first solve is cold" (result.P.cache = P.Cold)
  | Ok r -> Alcotest.failf "solve answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "solve failed: %s" msg);
  (match call client (P.Solve { id = "e2"; market; params = P.no_params }) with
  | Ok (P.Solved { id = "e2"; result }) ->
    check_true "repeat is served from the cache" (result.P.cache = P.Hit)
  | Ok r -> Alcotest.failf "repeat answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "repeat failed: %s" msg);
  (* chaos frames are rejected unless the daemon opted in *)
  (match call client (P.Chaos { mode = None }) with
  | Ok (P.Rejected { reason = P.Chaos_disabled; _ }) -> ()
  | Ok r -> Alcotest.failf "chaos answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "chaos failed: %s" msg);
  (match call client (P.Metrics { prefix = "service." }) with
  | Ok (P.Metrics_snapshot json) ->
    check_true "snapshot has series" (Obs.Json.member "series" json <> None)
  | Ok r -> Alcotest.failf "metrics answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "metrics failed: %s" msg);
  (* a garbage frame on a raw connection gets a typed rejection, and
     the daemon survives it *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let garbage = "this is not json\n" in
  ignore (Unix.write_substring fd garbage 0 (String.length garbage));
  (match P.response_of_line (read_line_fd fd) with
  | Ok (P.Rejected { id = None; reason = P.Malformed_frame _ }) -> ()
  | Ok r -> Alcotest.failf "garbage answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "garbage answer unparsable: %s" msg);
  Unix.close fd;
  (match call client P.Shutdown with
  | Ok P.Bye -> ()
  | Ok r -> Alcotest.failf "shutdown answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "shutdown failed: %s" msg);
  Cl.close client;
  Alcotest.(check int) "clean exit" 0 (wait_exit daemon)

(* Prometheus exposition: frame and plain HTTP ----------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let read_all_fd fd =
  let buf = Buffer.create 1024 in
  let b = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd b 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf b 0 n;
      go ()
  in
  go ()

let http_get socket target =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" target in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let response = read_all_fd fd in
  Unix.close fd;
  response

let test_daemon_prometheus () =
  with_daemon @@ fun ~socket ~daemon ->
  let address = Sv.Unix_path socket in
  let client = connect address in
  let market = mk_market () in
  (match call client (P.Solve { id = "p1"; market; params = P.no_params }) with
  | Ok (P.Solved _) -> ()
  | Ok r -> Alcotest.failf "solve answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "solve failed: %s" msg);
  (* exposition over the framed protocol *)
  (match call client (P.Metrics_prom { prefix = "service." }) with
  | Ok (P.Prom_text text) ->
    check_true "solved counter exposed" (contains text "service_requests_solved");
    check_true "TYPE comments present"
      (contains text "# TYPE service_requests_solved counter");
    check_true "latency histogram buckets"
      (contains text "service_solve_latency_s_bucket{le=");
    check_true "+Inf bucket closes the histogram" (contains text {|le="+Inf"|});
    check_true "histogram count" (contains text "service_solve_latency_s_count");
    check_true "journal gauge exposed even without a journal"
      (contains text "service_journal_pending")
  | Ok r -> Alcotest.failf "metrics_prom answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "metrics_prom failed: %s" msg);
  (* the loadgen convenience wrapper sees the same text *)
  (match Service.Loadgen.fetch_prom ~prefix:"service." address with
  | Ok text -> check_true "fetch_prom works" (contains text "service_requests_solved")
  | Error msg -> Alcotest.failf "fetch_prom failed: %s" msg);
  (* the same exposition over plain HTTP on the same socket *)
  let response = http_get socket "/metrics" in
  check_true "HTTP 200"
    (String.length response >= 12 && String.sub response 0 12 = "HTTP/1.0 200");
  check_true "prometheus content type"
    (contains response "text/plain; version=0.0.4");
  check_true "body has the latency histogram"
    (contains response "service_solve_latency_s");
  check_true "body has the solved counter"
    (contains response "service_requests_solved");
  let missing = http_get socket "/nope" in
  check_true "unknown path is 404"
    (String.length missing >= 12 && String.sub missing 0 12 = "HTTP/1.0 404");
  (* the daemon survives the HTTP detours and still speaks frames *)
  (match call client P.Shutdown with
  | Ok P.Bye -> ()
  | Ok r -> Alcotest.failf "shutdown answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "shutdown failed: %s" msg);
  Cl.close client;
  Alcotest.(check int) "clean exit" 0 (wait_exit daemon)

(* Loadgen CSV artifact ---------------------------------------------- *)

let test_loadgen_csv_table () =
  let report =
    {
      Service.Loadgen.sent = 10;
      solved = 8;
      degraded = 1;
      shed = 1;
      rejected = 0;
      other = 0;
      chaos_toggles = 2;
      chaos_sent = [ ("off", 1); ("spike", 1) ];
      unanswered = 0;
      errors = [];
      wall_s = 1.5;
      latency = None;
      per_shard = [];
      failovers = 0;
      retries = 0;
      recovered = 0;
    }
  in
  let csv = Report.Table.to_csv_string (Service.Loadgen.csv_table report) in
  check_true "sent row" (contains csv "sent,10");
  check_true "shed row" (contains csv "shed,1");
  check_true "chaos mode rows" (contains csv "chaos.spike,1");
  check_true "no latency rows without observations"
    (not (contains csv "latency.count"));
  Obs.Metrics.reset ~prefix:"t.lg." ();
  let h = Obs.Metrics.histogram "t.lg.h" in
  List.iter (Obs.Metrics.observe h) [ 0.01; 0.02; 0.04 ];
  let s = Obs.Metrics.summarize h in
  let csv2 =
    Report.Table.to_csv_string
      (Service.Loadgen.csv_table { report with Service.Loadgen.latency = Some s })
  in
  check_true "latency count row" (contains csv2 "latency.count,3");
  check_true "latency quantile rows" (contains csv2 "latency.p99_s,");
  check_true "latency sum row" (contains csv2 "latency.sum_s,")

(* SIGKILL mid-load, restart on the same journal --------------------- *)

let test_kill_and_restart_journal () =
  let journal = fresh_path ".journal" in
  let socket = fresh_path ".sock" in
  let daemon = start_daemon ~journal ~socket () in
  let client = connect (Sv.Unix_path socket) in
  let rng = Numerics.Rng.create 5L in
  let n = 120 in
  for i = 0 to n - 1 do
    let market = Service.Loadgen.random_market rng in
    get_ok
      (send client (P.Solve { id = Printf.sprintf "k%d" i; market; params = P.no_params }))
  done;
  (* one response read = at least one journaled ack; then kill -9 with
     the bulk of the load still queued *)
  (match read_response client with
  | Ok (P.Solved _ | P.Degraded _ | P.Shed _) -> ()
  | Ok r -> Alcotest.failf "unexpected first answer %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "no first answer: %s" msg);
  Fleet.signal daemon 0 Sys.sigkill;
  ignore (Fleet.wait daemon 0);
  Cl.close client;
  let before = get_ok (J.recover ~path:journal ()) in
  check_true "the kill left un-acked work" (before.J.pending <> []);
  check_true "some work was acked before the kill" (before.J.acked <> []);
  let received_seqs =
    List.sort_uniq compare
      (List.map (fun (p : J.pending) -> p.J.seq) before.J.pending
      @ List.map (fun (seq, _, _) -> seq) before.J.acked)
  in
  (* restart on the same journal: recovery replays every pending
     request before the listener opens, so connect = replay done *)
  Fleet.respawn daemon 0;
  let client2 = connect (Sv.Unix_path socket) in
  (match call client2 P.Shutdown with
  | Ok P.Bye -> ()
  | Ok r -> Alcotest.failf "shutdown answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "shutdown failed: %s" msg);
  Cl.close client2;
  Alcotest.(check int) "clean exit after recovery" 0 (wait_exit daemon);
  let after = get_ok (J.recover ~path:journal ()) in
  check_true "nothing left pending" (after.J.pending = []);
  let acked_seqs = List.sort compare (List.map (fun (seq, _, _) -> seq) after.J.acked) in
  Alcotest.(check (list int)) "every received request acked, none lost" received_seqs
    acked_seqs;
  (* no request acked twice: acks already journaled must not be
     re-answered by recovery *)
  Hashtbl.iter
    (fun seq count ->
      if count <> 1 then Alcotest.failf "seq %d acked %d times" seq count)
    (ack_counts journal);
  check_true "earlier acks all survive"
    (List.for_all
       (fun (seq, _, _) -> List.exists (fun (s, _, _) -> s = seq) after.J.acked)
       before.J.acked);
  Sys.remove journal

(* Netfault ---------------------------------------------------------- *)

module Nf = Service.Netfault

let test_netfault_determinism () =
  let mk () =
    Nf.create ~drop_conn_p:0.3 ~torn_write_p:0.3 ~delay_read_p:0.3
      ~delay_s:0.001 ~seed:99L ()
  in
  let trace nf =
    List.init 60 (fun i ->
        match i mod 3 with
        | 0 -> (
          match Nf.connect_decision nf ~endpoint:"e" with
          | `Proceed -> "connect"
          | `Refuse -> "refuse")
        | 1 -> (
          match Nf.send_decision nf with
          | `Proceed -> "send"
          | `Torn f -> Printf.sprintf "torn %.6f" f)
        | _ -> (
          match Nf.read_decision nf ~endpoint:"e" with
          | `Proceed -> "read"
          | `Delay d -> Printf.sprintf "delay %.6f" d
          | `Blackhole -> "blackhole"))
  in
  let a = mk () and b = mk () in
  Alcotest.(check (list string)) "same seed, same fault schedule" (trace a) (trace b);
  let sa = Nf.stats a and sb = Nf.stats b in
  check_true "fault counters match" (sa = sb);
  check_true "faults actually injected"
    (sa.Nf.dropped > 0 && sa.Nf.torn > 0 && sa.Nf.delayed > 0);
  (* a blackholed endpoint stalls every read; others are untouched *)
  let bh = Nf.create ~blackhole:[ "x" ] ~seed:1L () in
  (match Nf.read_decision bh ~endpoint:"x" with
  | `Blackhole -> ()
  | `Proceed | `Delay _ -> Alcotest.fail "blackholed endpoint not blackholed");
  (match Nf.read_decision bh ~endpoint:"y" with
  | `Blackhole -> Alcotest.fail "wrong endpoint blackholed"
  | `Proceed | `Delay _ -> ());
  (* probability zero injects nothing *)
  let off = Nf.create ~seed:5L () in
  for _ = 1 to 20 do
    (match Nf.connect_decision off ~endpoint:"e" with
    | `Proceed -> ()
    | `Refuse -> Alcotest.fail "zero-probability drop fired");
    match Nf.send_decision off with
    | `Proceed -> ()
    | `Torn _ -> Alcotest.fail "zero-probability tear fired"
  done

(* Shard ring -------------------------------------------------------- *)

module Sh = Service.Shard

let mk_fleet n =
  let base = Sv.default_config ~address:(Sv.Unix_path "/tmp/fleet") in
  get_ok (Fleet.ring (Fleet.layout ~dir:"/tmp/fleet" ~shards:n base))

let route_names t key =
  List.map (fun (s : Sh.shard) -> s.Sh.name) (Sh.route t ~key)

let test_shard_ring () =
  let t = mk_fleet 3 in
  let r = route_names t "fp-abc" in
  Alcotest.(check int) "every shard appears exactly once" 3
    (List.length (List.sort_uniq compare r));
  Alcotest.(check (list string)) "routing is deterministic" r
    (route_names t "fp-abc");
  let owners =
    List.sort_uniq compare
      (List.init 64 (fun i ->
           match Sh.route t ~key:(Printf.sprintf "key%d" i) with
           | s :: _ -> s.Sh.name
           | [] -> "none"))
  in
  Alcotest.(check (list string)) "keys spread over every owner"
    [ "s0"; "s1"; "s2" ] owners;
  (match Sh.find t "s1" with
  | None -> Alcotest.fail "find lost a shard"
  | Some s ->
    Sh.mark_failed s;
    check_true "one failure is suspect" (s.Sh.health = Sh.Suspect);
    Sh.mark_failed s;
    check_true "two failures is down" (s.Sh.health = Sh.Down);
    Sh.mark_ok s;
    check_true "success resets health" (s.Sh.health = Sh.Up && s.Sh.failures = 0));
  check_true "empty fleet rejected" (Result.is_error (Sh.make []));
  check_true "duplicate names rejected"
    (Result.is_error (Sh.make (let s = List.hd (Sh.shards t) in [ s; s ])))

let test_shard_manifest_roundtrip () =
  let t = mk_fleet 3 in
  let path = fresh_path ".fleet.json" in
  get_ok (Sh.save_manifest ~path t);
  let t' = get_ok (Sh.load_manifest ~path ()) in
  Alcotest.(check (list string)) "shards survive"
    (List.map (fun (s : Sh.shard) -> s.Sh.name) (Sh.shards t))
    (List.map (fun (s : Sh.shard) -> s.Sh.name) (Sh.shards t'));
  (* the reloaded ring routes every key identically: a client holding
     the manifest agrees with the serve-fleet process that wrote it *)
  for i = 0 to 19 do
    let key = Printf.sprintf "k%d" i in
    Alcotest.(check (list string)) (key ^ " routes identically")
      (route_names t key) (route_names t' key)
  done;
  Sys.remove path;
  (match Sh.address_of_string "tcp:127.0.0.1:9000" with
  | Ok (Sv.Tcp { host = "127.0.0.1"; port = 9000 }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "tcp address did not parse");
  check_true "unix address parses"
    (Sh.address_of_string "unix:/tmp/x.sock" = Ok (Sv.Unix_path "/tmp/x.sock"));
  check_true "garbage address rejected" (Result.is_error (Sh.address_of_string "zap"));
  check_true "bad tcp port rejected"
    (Result.is_error (Sh.address_of_string "tcp:h:zap"));
  check_true "missing manifest is an error"
    (Result.is_error (Sh.load_manifest ~path:(fresh_path ".fleet.json") ()))

(* Cache snapshot ---------------------------------------------------- *)

let test_cache_snapshot_roundtrip () =
  let path = fresh_path ".snapshot" in
  let cache = Ca.create ~capacity:8 in
  let markets =
    List.init 3 (fun i -> mk_market ~price:(0.5 +. (0.1 *. float_of_int i)) ())
  in
  List.iter
    (fun m ->
      Ca.store cache ~market:m ~fingerprint:(Ca.fingerprint m) (mk_solved ()))
    markets;
  Alcotest.(check int) "three entries saved" 3 (get_ok (Ca.save cache ~path));
  let fresh = Ca.create ~capacity:8 in
  let loaded = get_ok (Ca.load_into fresh ~path) in
  Alcotest.(check int) "three entries loaded" 3 loaded.Ca.entries;
  check_true "snapshot age is sane"
    (loaded.Ca.age_s >= 0. && loaded.Ca.age_s < 3600.);
  List.iter
    (fun m ->
      match Ca.find fresh ~fingerprint:(Ca.fingerprint m) with
      | Some solved ->
        check_true "reloaded entries serve as hits" (solved.P.cache = P.Hit);
        check_close "payload survives" 0.2 solved.P.subsidies.(1)
      | None -> Alcotest.fail "loaded entry not found")
    markets;
  check_true "population index rebuilt for warm starts"
    (Ca.warm_start fresh (mk_market ~price:0.55 ()) <> None);
  (* a missing file is a cold start, not an error *)
  let l = get_ok (Ca.load_into (Ca.create ~capacity:4) ~path:(fresh_path ".none")) in
  Alcotest.(check int) "missing file loads nothing" 0 l.Ca.entries;
  (* a smaller cache keeps the most recent entries of the snapshot *)
  let small = Ca.create ~capacity:2 in
  let ls = get_ok (Ca.load_into small ~path) in
  Alcotest.(check int) "load reports the full snapshot" 3 ls.Ca.entries;
  Alcotest.(check int) "bounded by capacity" 2 (Ca.size small);
  (match markets with
  | oldest :: newer ->
    check_true "the oldest entry was evicted"
      (Ca.find small ~fingerprint:(Ca.fingerprint oldest) = None);
    List.iter
      (fun m ->
        check_true "newer entries survive"
          (Ca.find small ~fingerprint:(Ca.fingerprint m) <> None))
      newer
  | [] -> assert false);
  (* corruption is a typed error, never a crash *)
  let oc = open_out path in
  output_string oc "{\"schema\":\"cache.v2\",\"entries\":[{\"fp\":1}]}\n";
  close_out oc;
  check_true "corrupt snapshot is an error"
    (Result.is_error (Ca.load_into (Ca.create ~capacity:4) ~path));
  Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let snapshot_schema path =
  Obs.Json.member "schema" (Obs.Json.of_string (read_file path))

(* Rewrite a saved snapshot under another schema tag: a well-formed
   document whose keys the current fingerprint will never produce. *)
let write_snapshot_as ~schema ~path markets =
  let cache = Ca.create ~capacity:8 in
  List.iter
    (fun m -> Ca.store cache ~market:m ~fingerprint:(Ca.fingerprint m) (mk_solved ()))
    markets;
  ignore (get_ok (Ca.save cache ~path));
  let doc = Obs.Json.of_string (read_file path) in
  check_true "saved snapshot is cache.v2"
    (Obs.Json.member "schema" doc = Some (Obs.Json.Str "cache.v2"));
  let retagged =
    match doc with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (fun (k, v) -> if k = "schema" then (k, Obs.Json.Str schema) else (k, v))
           fields)
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  let oc = open_out_bin path in
  output_string oc (Obs.Json.to_string retagged);
  close_out oc

let test_cache_snapshot_schema () =
  let path = fresh_path ".snapshot" in
  let m = mk_market () in
  write_snapshot_as ~schema:"cache.v1" ~path [ m ];
  let cache = Ca.create ~capacity:8 in
  (match Ca.load_into cache ~path with
  | Ok _ -> Alcotest.fail "a cache.v1 snapshot was loaded"
  | Error msg ->
    check_true "the error names the schema" (contains msg "cache.v1"));
  Alcotest.(check int) "nothing was loaded" 0 (Ca.size cache);
  check_true "a refused snapshot seeds nothing" (Ca.warm_start cache m = None);
  Sys.remove path

(* Client ------------------------------------------------------------ *)

let test_client_connect_no_fd_leak () =
  if Sys.file_exists "/proc/self/fd" then begin
    let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
    let missing = Sv.Unix_path (fresh_path ".sock") in
    let before = open_fds () in
    for _ = 1 to 200 do
      match Cl.connect missing with
      | Ok _ -> Alcotest.fail "connected to a socket that does not exist"
      | Error (Cl.Conn_refused _) -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (Cl.error_to_string e)
    done;
    Alcotest.(check int) "refused connects leave no fd behind" before (open_fds ())
  end

(* Journal compaction ------------------------------------------------ *)

let test_journal_compaction () =
  let path = fresh_path ".journal" in
  let j = get_ok (J.open_ ~path ()) in
  for seq = 0 to 4 do
    get_ok
      (J.record_received j ~seq ~id:(Printf.sprintf "r%d" seq)
         ~fingerprint:(Printf.sprintf "fp%d" seq)
         ~request_line:(Printf.sprintf "line%d" seq))
  done;
  List.iter
    (fun seq ->
      get_ok (J.record_acked j ~seq ~id:(Printf.sprintf "r%d" seq) ~kind:J.Solved))
    [ 0; 1; 3 ];
  let before = J.size_bytes j in
  let c = get_ok (J.compact j) in
  Alcotest.(check int) "pending lines kept" 2 c.J.kept;
  check_true "acked lines dropped" (c.J.dropped >= 3);
  check_true "the file shrank"
    (c.J.bytes_after < c.J.bytes_before && c.J.bytes_before = before);
  Alcotest.(check int) "tracked size agrees" c.J.bytes_after (J.size_bytes j);
  (* the append channel survives the rewrite *)
  get_ok (J.record_received j ~seq:5 ~id:"r5" ~fingerprint:"fp5" ~request_line:"line5");
  get_ok (J.record_acked j ~seq:5 ~id:"r5" ~kind:J.Degraded);
  J.close j;
  let r = get_ok (J.recover ~path ()) in
  Alcotest.(check int) "no torn lines" 0 r.J.torn_lines;
  Alcotest.(check (list int)) "still-pending requests survive" [ 2; 4 ]
    (List.map (fun (p : J.pending) -> p.J.seq) r.J.pending);
  check_true "request lines verbatim"
    (List.map (fun (p : J.pending) -> p.J.request_line) r.J.pending
    = [ "line2"; "line4" ]);
  (* the seq-floor marker: compaction must never allow seq reuse, or a
     recycled seq could be double-acked *)
  Alcotest.(check int) "next_seq stays monotone" 6 r.J.next_seq;
  (match r.J.acked with
  | [ (5, "r5", J.Degraded) ] -> ()
  | _ -> Alcotest.fail "post-compaction ack lost");
  Sys.remove path

(* Pool: breakers and failover --------------------------------------- *)

module Pl = Service.Pool

let pool_config =
  {
    Pl.default_config with
    Pl.retry = Runner.Supervisor.retry ~max_attempts:1 ~backoff_s:0.01 ();
    breaker_threshold = 2;
    breaker_cooldown_s = 60.;
    timeout_s = 5.;
  }

let test_pool_breaker_trips_and_fast_fails () =
  let t =
    get_ok
      (Sh.make
         [
           {
             Sh.name = "dead";
             address = Sv.Unix_path (fresh_path ".sock");
             health = Sh.Up;
             failures = 0;
           };
         ])
  in
  let pool = Pl.create ~config:pool_config t in
  let m = mk_market () in
  let expect_transport label =
    match Pl.solve pool m with
    | Error (Pl.Transport _) -> ()
    | Error e -> Alcotest.failf "%s: wrong error %s" label (Pl.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: solved on a dead fleet" label
  in
  expect_transport "first failure";
  expect_transport "second failure trips the breaker";
  (* breaker open, long cooldown: the pool now fails fast without
     spending a syscall on the dead shard *)
  (match Pl.solve pool m with
  | Error Pl.No_shard_available -> ()
  | Error e -> Alcotest.failf "expected fast-fail, got %s" (Pl.error_to_string e)
  | Ok _ -> Alcotest.fail "solved on a dead fleet");
  (match (Pl.stats pool).Pl.shards with
  | [ d ] ->
    Alcotest.(check string) "breaker open" "open" d.Pl.breaker;
    check_true "trip counted" (d.Pl.trips >= 1);
    check_true "failures counted" (d.Pl.failures >= 2);
    check_true "shard marked down" (d.Pl.health = Sh.Down)
  | _ -> Alcotest.fail "one shard expected");
  Pl.close pool

(* deterministically find a market whose ring owner is [name] *)
let market_owned_by fleet name rng =
  let rec go n =
    if n > 500 then Alcotest.failf "no market routed to %s in 500 draws" name
    else
      let m = Service.Loadgen.random_market rng in
      match Sh.route fleet ~key:(Ca.fingerprint m) with
      | s :: _ when s.Sh.name = name -> m
      | _ -> go (n + 1)
  in
  go 0

let test_pool_fails_over_to_live_shard () =
  with_daemon @@ fun ~socket ~daemon ->
  let dead_socket = fresh_path ".sock" in
  let fleet =
    get_ok
      (Sh.make
         [
           { Sh.name = "dead"; address = Sv.Unix_path dead_socket; health = Sh.Up; failures = 0 };
           { Sh.name = "live"; address = Sv.Unix_path socket; health = Sh.Up; failures = 0 };
         ])
  in
  Cl.close (connect (Sv.Unix_path socket));
  let pool = Pl.create ~config:pool_config fleet in
  let rng = Numerics.Rng.create 3L in
  (* a dead-owned key must be answered anyway, by the live replica *)
  let m_dead = market_owned_by fleet "dead" rng in
  (match Pl.solve pool m_dead with
  | Ok (a : Pl.answer) ->
    Alcotest.(check string) "answered by the live shard" "live" a.Pl.shard;
    check_true "counted as a failover" (a.Pl.failovers > 0);
    check_true "the answer is a real equilibrium" a.Pl.solved.P.converged
  | Error e -> Alcotest.failf "dead-owned solve failed: %s" (Pl.error_to_string e));
  (* a live-owned key goes straight to its owner *)
  let m_live = market_owned_by fleet "live" rng in
  (match Pl.solve pool m_live with
  | Ok (a : Pl.answer) ->
    Alcotest.(check string) "owner answers" "live" a.Pl.shard;
    Alcotest.(check int) "no failover needed" 0 a.Pl.failovers
  | Error e -> Alcotest.failf "live-owned solve failed: %s" (Pl.error_to_string e));
  check_true "pool counted the failover" ((Pl.stats pool).Pl.failovers > 0);
  Pl.close pool;
  let client = connect (Sv.Unix_path socket) in
  (match call client P.Shutdown with
  | Ok P.Bye -> ()
  | Ok r -> Alcotest.failf "shutdown answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "shutdown failed: %s" msg);
  Cl.close client;
  Alcotest.(check int) "clean exit" 0 (wait_exit daemon)

(* Snapshot warm restart (forked) ------------------------------------ *)

let shutdown_and_wait ?shard ~label client daemon =
  (match call client P.Shutdown with
  | Ok P.Bye -> ()
  | Ok r -> Alcotest.failf "%s shutdown answered with %s" label (P.response_to_line r)
  | Error msg -> Alcotest.failf "%s shutdown failed: %s" label msg);
  Cl.close client;
  Alcotest.(check int) (label ^ " clean exit") 0 (wait_exit ?shard daemon)

let test_snapshot_warm_restart () =
  let snapshot = fresh_path ".snapshot" in
  let socket = fresh_path ".sock" in
  let daemon = start_daemon ~snapshot ~socket () in
  let client = connect (Sv.Unix_path socket) in
  let market = mk_market () in
  (match call client (P.Solve { id = "w1"; market; params = P.no_params }) with
  | Ok (P.Solved { result; _ }) ->
    check_true "first solve is cold" (result.P.cache = P.Cold)
  | Ok r -> Alcotest.failf "solve answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "solve failed: %s" msg);
  shutdown_and_wait ~label:"first daemon" client daemon;
  check_true "drain wrote the snapshot" (Sys.file_exists snapshot);
  check_true "the snapshot is cache.v2"
    (snapshot_schema snapshot = Some (Obs.Json.Str "cache.v2"));
  (* a fresh process on the same snapshot answers the repeated
     fingerprint from the reloaded cache: zero solver evaluations,
     strictly cheaper than the cold solve above *)
  Fleet.respawn daemon 0;
  let client2 = connect (Sv.Unix_path socket) in
  (match call client2 (P.Solve { id = "w2"; market; params = P.no_params }) with
  | Ok (P.Solved { result; _ }) ->
    check_true "repeat after restart is a cache hit" (result.P.cache = P.Hit)
  | Ok r -> Alcotest.failf "repeat answered with %s" (P.response_to_line r)
  | Error msg -> Alcotest.failf "repeat failed: %s" msg);
  (* the restarted daemon's own counters agree *)
  (match Service.Loadgen.fetch_metrics ~prefix:"service.cache." (Sv.Unix_path socket) with
  | Error msg -> Alcotest.failf "metrics fetch failed: %s" msg
  | Ok json -> (
    match Obs.Export.series_field json ~name:"service.cache.hits" "value" with
    | Some hits -> check_true "daemon counted the hit" (hits >= 1.)
    | None -> Alcotest.fail "no cache.hits counter"));
  shutdown_and_wait ~label:"restarted daemon" client2 daemon;
  Sys.remove snapshot

let test_snapshot_v1_starts_cold () =
  let snapshot = fresh_path ".snapshot" in
  let warnings = fresh_path ".warnings" in
  let market = mk_market () in
  write_snapshot_as ~schema:"cache.v1" ~path:snapshot [ market ];
  (with_daemon ~snapshot ~warnings @@ fun ~socket ~daemon ->
   let client = connect (Sv.Unix_path socket) in
   (match call client (P.Solve { id = "v1"; market; params = P.no_params }) with
   | Ok (P.Solved { result; _ }) ->
     check_true "a cache.v1 entry is never served" (result.P.cache = P.Cold)
   | Ok r -> Alcotest.failf "solve answered with %s" (P.response_to_line r)
   | Error msg -> Alcotest.failf "solve failed: %s" msg);
   shutdown_and_wait ~label:"cold daemon" client daemon);
  let logged =
    if Sys.file_exists warnings then begin
      let s = read_file warnings in
      Sys.remove warnings;
      s
    end
    else ""
  in
  check_true "the daemon warned about the old snapshot"
    (contains logged "cache.v1");
  Sys.remove snapshot

(* Fleet: failover, supervision, respawn (forked) -------------------- *)

(* [f configs fleet] over a started [shards]-shard fleet laid out
   under a fresh directory; whatever still runs afterwards is killed *)
let with_fleet ~shards f =
  let dir = Filename.temp_dir "fleet" "" in
  let configs =
    Fleet.layout ~dir ~shards (Sv.default_config ~address:(Sv.Unix_path dir))
  in
  let fleet = Fleet.start ~jobs:1 configs in
  let finally () =
    kill_all fleet ~shards;
    remove_dir dir
  in
  Fun.protect ~finally (fun () -> f configs fleet)

let shard_address configs i = (List.nth configs i).Sv.address

(* every journal closes with nothing pending and no seq acked twice:
   at-most-once per shard across a SIGKILL *)
let check_journals_drained configs =
  List.iter
    (fun (cfg : Sv.config) ->
      let journal = Option.get cfg.Sv.journal_path in
      let r = get_ok (J.recover ~path:journal ()) in
      check_true "journal drained" (r.J.pending = []);
      Hashtbl.iter
        (fun seq count ->
          if count <> 1 then Alcotest.failf "seq %d acked %d times" seq count)
        (ack_counts journal))
    configs

let test_fleet_failover_sigkill () =
  with_fleet ~shards:3 @@ fun configs daemons ->
  let fleet = get_ok (Fleet.ring configs) in
  List.iteri (fun i _ -> Cl.close (connect (shard_address configs i))) configs;
  let pool =
    Pl.create ~config:{ pool_config with Pl.breaker_cooldown_s = 0.2 } fleet
  in
  let rng = Numerics.Rng.create 17L in
  let solve_ok label m =
    match Pl.solve pool m with
    | Ok (a : Pl.answer) -> a
    | Error e -> Alcotest.failf "%s failed: %s" label (Pl.error_to_string e)
  in
  (* phase 1: healthy fleet; traffic reaches every shard, no failovers *)
  let markets = List.init 24 (fun _ -> Service.Loadgen.random_market rng) in
  let answers1 = List.map (solve_ok "healthy solve") markets in
  Alcotest.(check (list string)) "all three shards answer"
    [ "s0"; "s1"; "s2" ]
    (List.sort_uniq compare (List.map (fun (a : Pl.answer) -> a.Pl.shard) answers1));
  check_true "no failovers while healthy"
    (List.for_all (fun (a : Pl.answer) -> a.Pl.failovers = 0) answers1);
  (* phase 2: SIGKILL s0; the same load must still be fully answered *)
  Fleet.signal daemons 0 Sys.sigkill;
  ignore (Fleet.wait daemons 0);
  let answers2 = List.map (solve_ok "post-kill solve") markets in
  check_true "keys owned by the casualty failed over"
    (List.exists (fun (a : Pl.answer) -> a.Pl.failovers > 0) answers2);
  check_true "the dead shard answered nothing"
    (List.for_all (fun (a : Pl.answer) -> a.Pl.shard <> "s0") answers2);
  check_true "pool counted failovers" ((Pl.stats pool).Pl.failovers > 0);
  (match
     List.find_opt
       (fun (d : Pl.shard_stats) -> d.Pl.name = "s0")
       (Pl.stats pool).Pl.shards
   with
  | Some d ->
    check_true "the casualty's breaker tripped" (d.Pl.trips >= 1);
    check_true "its breaker is not closed" (d.Pl.breaker <> "closed")
  | None -> Alcotest.fail "stats lost a shard");
  (* phase 3: restart s0 on the same socket and journal; after the
     cooldown one probe closes the breaker and traffic returns *)
  Fleet.respawn daemons 0;
  Cl.close (connect (shard_address configs 0));
  Unix.sleepf 0.25;
  Pl.probe pool;
  (match
     List.find_opt
       (fun (d : Pl.shard_stats) -> d.Pl.name = "s0")
       (Pl.stats pool).Pl.shards
   with
  | Some d ->
    Alcotest.(check string) "breaker closed after the probe" "closed" d.Pl.breaker;
    check_true "health recovered" (d.Pl.health = Sh.Up)
  | None -> Alcotest.fail "stats lost a shard");
  let answers3 = List.map (solve_ok "post-restart solve") markets in
  check_true "the restarted shard serves again"
    (List.exists (fun (a : Pl.answer) -> a.Pl.shard = "s0") answers3);
  Pl.close pool;
  List.iteri
    (fun i _ ->
      shutdown_and_wait ~shard:i ~label:(Printf.sprintf "s%d" i)
        (connect (shard_address configs i))
        daemons)
    configs;
  check_journals_drained configs

(* a problem seen inside a supervise callback, where raising would
   leave the fleet running; asserted once [supervise] has returned *)
let noted = ref []
let note fmt = Printf.ksprintf (fun msg -> noted := msg :: !noted) fmt

let check_no_notes () =
  let notes = List.rev !noted in
  noted := [];
  Alcotest.(check (list string)) "no problem inside the callbacks" [] notes

let stop_self () = Unix.kill (Unix.getpid ()) Sys.sigterm

(* [Fleet.supervise] over a [shards]-shard fleet in this process,
   bounded twice over. A Spawned event beyond the [cap]-th, or a fleet
   still up after 30 s, SIGTERMs this process, so [supervise] drains
   the fleet and respawns nothing more; a fleet still up 5 s later is
   SIGKILLed. A regression can neither fork without bound nor hang the
   suite. Returns the summary, the Spawned count and every Exited
   event in order. *)
let supervise_capped ?(cap = 3) ?ready ?(on_spawn = fun ~count:_ _ -> ()) ~shards
    ~restart fleet =
  let spawns = ref 0 and exits = ref [] and alarms = ref 0 in
  let on_event = function
    | Fleet.Spawned { shard; _ } ->
      incr spawns;
      on_spawn ~count:!spawns shard;
      if !spawns > cap then stop_self ()
    | Fleet.Exited { shard; status; restarting } ->
      exits := (shard, status, restarting) :: !exits
  in
  let watchdog _ =
    incr alarms;
    if !alarms = 1 then begin
      note "the fleet was still up after 30 s";
      stop_self ();
      ignore (Unix.alarm 5)
    end
    else for i = 0 to shards - 1 do Fleet.signal fleet i Sys.sigkill done
  in
  let old_alarm = Sys.signal Sys.sigalrm (Sys.Signal_handle watchdog) in
  ignore (Unix.alarm 30);
  let finally () =
    ignore (Unix.alarm 0);
    Sys.set_signal Sys.sigalrm old_alarm
  in
  let summary =
    Fun.protect ~finally (fun () -> Fleet.supervise ~on_event ?ready ~restart fleet)
  in
  (summary, !spawns, List.rev !exits)

let solve_on address id =
  match Fleet.await address with
  | Error msg -> note "%s: %s" id msg
  | Ok client ->
    (match call client (P.Solve { id; market = mk_market (); params = P.no_params }) with
    | Ok (P.Solved _) -> ()
    | Ok r -> note "%s answered %s" id (P.response_to_line r)
    | Error msg -> note "%s failed: %s" id msg);
    Cl.close client

let shutdown_frame address =
  match Fleet.await address with
  | Error msg -> note "shutdown connect: %s" msg
  | Ok client ->
    (match call client P.Shutdown with
    | Ok P.Bye -> ()
    | Ok r -> note "shutdown answered %s" (P.response_to_line r)
    | Error msg -> note "shutdown failed: %s" msg);
    Cl.close client

let test_supervise_respawns_sigkilled_shard () =
  with_fleet ~shards:2 @@ fun configs fleet ->
  let s0 = shard_address configs 0 and s1 = shard_address configs 1 in
  (* s0 acks work, then dies by SIGKILL *)
  let ready () =
    solve_on s0 "before-kill";
    solve_on s1 "s1";
    Fleet.signal fleet 0 Sys.sigkill
  in
  (* the third spawn is s0's replacement: it answers on the same socket,
     then both shards drain on Shutdown frames *)
  let on_spawn ~count shard =
    if count = 3 then begin
      if shard <> 0 then note "spawn 3 was s%d, not the casualty" shard;
      solve_on s0 "after-respawn";
      shutdown_frame s0;
      shutdown_frame s1
    end
  in
  let summary, spawns, exits =
    supervise_capped ~ready ~on_spawn ~shards:2 ~restart:true fleet
  in
  check_no_notes ();
  Alcotest.(check int) "two starts and one respawn" 3 spawns;
  Alcotest.(check int) "one unexpected exit" 1 summary.Fleet.unexpected;
  Alcotest.(check int) "nothing retired" 0 summary.Fleet.retired;
  (match exits with
  | (0, Unix.WSIGNALED s, true) :: clean ->
    check_true "the casualty died by SIGKILL" (s = Sys.sigkill);
    check_true "both shards then drained cleanly"
      (List.sort compare (List.map (fun (i, st, _) -> (i, st)) clean)
      = [ (0, Unix.WEXITED 0); (1, Unix.WEXITED 0) ])
  | _ -> Alcotest.fail "the first exit is not s0's SIGKILL, marked restarting");
  check_journals_drained configs;
  let s0_journal = Option.get (List.hd configs).Sv.journal_path in
  Alcotest.(check int) "s0's journal holds both incarnations' acks" 2
    (List.length (get_ok (J.recover ~path:s0_journal ())).J.acked);
  check_true "the replacement saved s0's snapshot"
    (Sys.file_exists (Option.get (List.hd configs).Sv.snapshot_path))

let test_supervise_sigterm_drains () =
  with_fleet ~shards:2 @@ fun configs fleet ->
  (* every shard answers a ping, so each has its own handlers installed *)
  let ready () =
    List.iteri
      (fun i _ ->
        match Fleet.await (shard_address configs i) with
        | Ok c -> Cl.close c
        | Error msg -> note "s%d: %s" i msg)
      configs;
    stop_self ()
  in
  let summary, spawns, exits = supervise_capped ~ready ~shards:2 ~restart:true fleet in
  check_no_notes ();
  Alcotest.(check int) "no respawn" 2 spawns;
  check_true "the stop signal was forwarded" summary.Fleet.stopped;
  Alcotest.(check int) "no unexpected exit" 0 summary.Fleet.unexpected;
  check_true "each shard exited 0, none restarting"
    (List.sort compare exits = [ (0, Unix.WEXITED 0, false); (1, Unix.WEXITED 0, false) ])

let test_supervise_retires_startup_failure () =
  (* no journal or snapshot, whose opening would create the directory *)
  let socket = Filename.concat (fresh_path ".gone") "s0.sock" in
  let fleet = Fleet.start ~jobs:1 [ Sv.default_config ~address:(Sv.Unix_path socket) ] in
  Fun.protect ~finally:(fun () -> kill_all fleet ~shards:1) @@ fun () ->
  let summary, spawns, exits = supervise_capped ~shards:1 ~restart:true fleet in
  check_no_notes ();
  Alcotest.(check int) "spawned exactly once" 1 spawns;
  Alcotest.(check int) "retired" 1 summary.Fleet.retired;
  Alcotest.(check int) "counted unexpected" 1 summary.Fleet.unexpected;
  check_true "exited with the startup-failure code, not restarting"
    (exits = [ (0, Unix.WEXITED Fleet.startup_failure, false) ])

(* a socket path beyond the 108-byte sun_path limit cannot be bound, so
   the shard exits with the startup-failure code before it answers:
   [publish] gives up on it as soon as it has exited, not after the
   10 s await timeout, and [supervise] still retires it *)
let test_publish_gives_up_on_an_exited_shard () =
  let socket = Filename.concat (fresh_path (String.make 120 'x')) "s0.sock" in
  let manifest = fresh_path ".json" in
  let fleet = Fleet.start ~jobs:1 [ Sv.default_config ~address:(Sv.Unix_path socket) ] in
  let finally () =
    kill_all fleet ~shards:1;
    if Sys.file_exists manifest then Sys.remove manifest
  in
  Fun.protect ~finally @@ fun () ->
  let published = ref None in
  let ready () =
    let t0 = Obs.Clock.now () in
    let up = Fleet.publish ~manifest fleet in
    published := Some (up, Obs.Clock.elapsed ~since:t0)
  in
  let summary, spawns, exits = supervise_capped ~ready ~shards:1 ~restart:true fleet in
  check_no_notes ();
  (match !published with
  | Some (Ok up, elapsed) ->
    Alcotest.(check int) "0 of 1 shards up" 0 up;
    check_true
      (Printf.sprintf "gave up after %.2f s, well under the 10 s timeout" elapsed)
      (elapsed < 3.)
  | Some (Error msg, _) -> Alcotest.fail msg
  | None -> Alcotest.fail "ready never ran");
  Alcotest.(check int) "spawned exactly once" 1 spawns;
  Alcotest.(check int) "retired" 1 summary.Fleet.retired;
  check_true "the exit publish reaped reached supervise, not restarting"
    (exits = [ (0, Unix.WEXITED Fleet.startup_failure, false) ])

let suite =
  ( "service",
    [
      quick "proto: request round-trips" test_request_roundtrips;
      quick "proto: chaos mode round-trips" test_chaos_roundtrips;
      quick "proto: response round-trips" test_response_roundtrips;
      quick "proto: malformed frames are typed rejects" test_malformed_frames;
      quick "proto: market validation" test_bad_markets;
      quick "proto: oversized frame" test_oversized_frame;
      quick "market_io: JSON round-trip" test_market_io_json_roundtrip;
      quick "market_io: JSON errors locate row and field" test_market_io_json_errors;
      quick "cache: fingerprints" test_cache_fingerprints;
      quick "cache: exact hit and stats" test_cache_hit_and_stats;
      quick "cache: LRU eviction" test_cache_lru_eviction;
      quick "cache: warm start picks the nearest neighbour" test_cache_warm_start;
      prop_fingerprint_survives_the_wire;
      prop_one_step_changes_the_key;
      prop_population_ignores_knobs;
      prop_every_family_fingerprints;
      quick "queue: bounded FIFO admission" test_queue_guard;
      quick "journal: record and recover" test_journal_roundtrip;
      quick "journal: missing file is empty" test_journal_missing_file;
      quick "journal: torn tail is skipped with a warning" test_journal_torn_tail;
      quick "solve_one: cache cuts solver evaluations" test_solve_one_cache_effectiveness;
      quick "solve_one: impossible budget degrades" test_solve_one_degrades_on_budget;
      quick "daemon: end-to-end request mix" test_daemon_end_to_end;
      quick "daemon: prometheus over frame and HTTP" test_daemon_prometheus;
      quick "loadgen: csv artifact shape" test_loadgen_csv_table;
      quick "daemon: SIGKILL mid-load, restart replays the journal"
        test_kill_and_restart_journal;
      quick "netfault: seeded fault schedule is deterministic"
        test_netfault_determinism;
      quick "shard: ring covers and spreads, health transitions" test_shard_ring;
      quick "shard: fleet manifest round-trips the ring"
        test_shard_manifest_roundtrip;
      quick "cache: snapshot save/load round-trip" test_cache_snapshot_roundtrip;
      quick "cache: a cache.v1 snapshot is refused" test_cache_snapshot_schema;
      quick "client: refused connects leak no fd" test_client_connect_no_fd_leak;
      quick "journal: compaction keeps pending, floors seq"
        test_journal_compaction;
      quick "pool: breaker trips and fails fast on a dead fleet"
        test_pool_breaker_trips_and_fast_fails;
      quick "pool: dead-owned keys fail over to the live replica"
        test_pool_fails_over_to_live_shard;
      quick "daemon: cache snapshot warm-starts a restart"
        test_snapshot_warm_restart;
      quick "daemon: a cache.v1 snapshot is refused, the daemon serves cold"
        test_snapshot_v1_starts_cold;
      quick "fleet: SIGKILL one of three shards, failover and recovery"
        test_fleet_failover_sigkill;
      quick "fleet: supervise respawns a SIGKILLed shard on its own files"
        test_supervise_respawns_sigkilled_shard;
      quick "fleet: SIGTERM to the supervisor drains every shard"
        test_supervise_sigterm_drains;
      quick "fleet: a shard that fails at startup is retired"
        test_supervise_retires_startup_failure;
      quick "fleet: publish gives up on a shard that already exited"
        test_publish_gives_up_on_an_exited_shard;
    ] )

let () = Alcotest.run "service" [ suite ]
