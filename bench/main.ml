(* Benchmark harness.

   Part 1 regenerates every table/figure of the paper (the same rows the
   evaluation section reports) and prints the shape-check verdicts.
   Part 2 times the computational kernels behind each figure with
   Bechamel: one Test.make per figure, plus micro-benchmarks of the
   solvers.

   With `--json FILE` the harness additionally emits a machine-readable
   perf record (schema bench.v1): per-figure regeneration wall time and
   solver work, plus the bechamel time/run estimates — the BENCH_*.json
   trajectory the ROADMAP asks for. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 1: figure regeneration *)

type figure_record = {
  fig_id : string;
  seconds : float;
  root_calls : int;
  objective_evaluations : float;
  deriv_ad : float;  (** exact seeded AD passes *)
  deriv_fd : float;  (** finite-difference stencil estimates *)
  continuation : Numerics.Continuation.stats;
  shared : Experiments.Eq_sweep.shared_stats option;
      (** the memoized fig7-11 sweep's cost, attributed to every
          consumer (their own counters only charge whichever ran
          first) *)
}

let regenerate experiments =
  print_endline "==================================================================";
  print_endline " Figure regeneration: Ma, 'Subsidization Competition' (CoNEXT'14)";
  print_endline "==================================================================";
  let failures = ref 0 in
  let records = ref [] in
  List.iter
    (fun (e : Experiments.Common.t) ->
      let t0 = Obs.Clock.now () in
      (* Common.run resets solver telemetry, so the per-figure solver
         counts below describe this figure alone *)
      let outcome = Experiments.Common.run e in
      let seconds = Obs.Clock.elapsed ~since:t0 in
      Printf.printf "\n%s\n" (String.make 66 '-');
      Experiments.Common.print ~plots:false outcome;
      Printf.printf "[%s regenerated in %.2fs]\n" e.Experiments.Common.id seconds;
      Printf.printf "[derivatives: %.0f AD passes, %.0f FD stencils | %s]\n"
        (Numerics.Ad.stats ()).Numerics.Ad.passes
        (Numerics.Diff.stats ()).Numerics.Diff.estimates
        (Numerics.Continuation.stats_summary ());
      let stats = Numerics.Robust.stats () in
      let id = e.Experiments.Common.id in
      records :=
        {
          fig_id = id;
          seconds;
          root_calls = stats.Numerics.Robust.root_calls;
          objective_evaluations = Obs.Metrics.sum_histograms "solver.evaluations";
          deriv_ad = (Numerics.Ad.stats ()).Numerics.Ad.passes;
          deriv_fd = (Numerics.Diff.stats ()).Numerics.Diff.estimates;
          continuation = Numerics.Continuation.stats ();
          shared =
            (if List.mem id Experiments.Eq_sweep.consumers then
               Experiments.Eq_sweep.shared_stats ()
             else None);
        }
        :: !records;
      if
        not
          (List.for_all
             (fun c -> c.Subsidization.Theorems.passed)
             outcome.Experiments.Common.shape_checks)
      then incr failures)
    experiments;
  (!failures, List.rev !records)

(* ------------------------------------------------------------------ *)
(* stress: the two equilibrium solvers beyond the paper's market sizes.
   N = 9, 50 and 200 CPs, each market's CPs drawn from their own
   Rng.split_n streams, capacity N/3, p = 0.6, q = 1. Cold best
   response from the zero profile, then the Newton corrector started
   2% below the equilibrium best response found. bench.v1 only: one
   record per solver and size, gated on its deterministic counts. *)

let stress_id = "stress"
let stress_sizes = [ 9; 50; 200 ]

let stress_market rng n =
  let cps = Array.map (fun r -> Subsidization.Scenario.random_cp r) (Numerics.Rng.split_n rng n) in
  Subsidization.System.make ~cps ~capacity:(float_of_int n /. 3.) ()

(* one stress record: the solver counters are reset first, so the
   record describes [solve] alone *)
let stress_record fig_id solve =
  Numerics.Robust.reset_stats ();
  Numerics.Ad.reset_stats ();
  Numerics.Diff.reset_stats ();
  Numerics.Continuation.reset_stats ();
  let t0 = Obs.Clock.now () in
  let eq = solve () in
  let seconds = Obs.Clock.elapsed ~since:t0 in
  let record =
    {
      fig_id;
      seconds;
      root_calls = (Numerics.Robust.stats ()).Numerics.Robust.root_calls;
      objective_evaluations = Obs.Metrics.sum_histograms "solver.evaluations";
      deriv_ad = (Numerics.Ad.stats ()).Numerics.Ad.passes;
      deriv_fd = (Numerics.Diff.stats ()).Numerics.Diff.estimates;
      continuation = Numerics.Continuation.stats ();
      shared = None;
    }
  in
  (eq, record)

let stress () =
  let streams = Numerics.Rng.split_n (Numerics.Rng.create 2014L) (List.length stress_sizes) in
  let table =
    Report.Table.make
      ~columns:[ "solver"; "N"; "seconds"; "root calls"; "corrector iters"; "AD passes"; "KKT" ]
  in
  let row (eq : Subsidization.Nash.equilibrium) r n solver =
    Report.Table.add_row table
      [
        solver;
        string_of_int n;
        Printf.sprintf "%.4f" r.seconds;
        string_of_int r.root_calls;
        Printf.sprintf "%.0f" r.continuation.Numerics.Continuation.corrector_iterations;
        Printf.sprintf "%.0f" r.deriv_ad;
        Printf.sprintf "%.1e" eq.Subsidization.Nash.kkt_residual;
      ]
  in
  let records =
    List.concat
      (List.mapi
         (fun k n ->
           let sys = stress_market streams.(k) n in
           let game () = Subsidization.Subsidy_game.make sys ~price:0.6 ~cap:1. in
           let cold, br =
             stress_record (Printf.sprintf "%s-br-n%d" stress_id n) (fun () ->
                 Subsidization.Nash.solve (game ()))
           in
           let x0 = Numerics.Vec.map (fun s -> 0.98 *. s) cold.Subsidization.Nash.subsidies in
           let corrected, newton =
             stress_record (Printf.sprintf "%s-newton-n%d" stress_id n) (fun () ->
                 Subsidization.Nash.correct ~x0 (game ()))
           in
           row cold br n "best response (cold)";
           row corrected newton n "newton (2% off)";
           [ br; newton ])
         stress_sizes)
  in
  Printf.printf "\n%s\n" (String.make 66 '-');
  print_endline "stress: cold best response vs the Newton corrector (p = 0.6, q = 1)";
  print_endline (Report.Table.to_string table);
  records

(* ------------------------------------------------------------------ *)
(* Part 2: bechamel timings *)

let fig45_sys = Subsidization.Scenario.fig45_system ()
let fig7_11_sys = Subsidization.Scenario.fig7_11_system ()
let bench_prices = Subsidization.Scenario.price_grid ~points:9 ()

let bench_fig4 () =
  let prices = bench_prices in
  Subsidization.One_sided.revenue_curve fig45_sys ~prices

let bench_fig5 () =
  let prices = bench_prices in
  Array.map (fun p -> (Subsidization.One_sided.state fig45_sys ~price:p).Subsidization.System.throughputs) prices

let bench_fig7_row cap () =
  Subsidization.Policy.price_sweep fig7_11_sys ~cap ~prices:bench_prices

let equilibrium_game = Subsidization.Subsidy_game.make fig7_11_sys ~price:0.8 ~cap:1.0

let nash_equilibrium = Subsidization.Nash.solve equilibrium_game

let bench_verify () = Subsidization.Theorems.run_paper_suite ()

let bench_capacity () =
  Subsidization.Capacity.evaluate fig7_11_sys
    ~pricing:(Subsidization.Capacity.Fixed_price 0.8) ~cap:1.0 ~unit_cost:0.15
    ~capacity:2.

let tests =
  Test.make_grouped ~name:"subsidization"
    [
      (* one per figure *)
      Test.make ~name:"fig4:revenue-curve" (Staged.stage bench_fig4);
      Test.make ~name:"fig5:throughput-curves" (Staged.stage bench_fig5);
      Test.make ~name:"fig7:sweep-q0" (Staged.stage (bench_fig7_row 0.));
      Test.make ~name:"fig8-11:sweep-q1" (Staged.stage (bench_fig7_row 1.0));
      Test.make ~name:"fig8-11:sweep-q2" (Staged.stage (bench_fig7_row 2.0));
      Test.make ~name:"verify:theorem-suite" (Staged.stage bench_verify);
      Test.make ~name:"capacity:market-eval" (Staged.stage bench_capacity);
      (* solver kernels *)
      Test.make ~name:"kernel:nash-solve"
        (Staged.stage (fun () -> Subsidization.Nash.solve equilibrium_game));
      Test.make ~name:"kernel:sensitivity-ds-dq"
        (Staged.stage (fun () ->
             Subsidization.Sensitivity.ds_dq equilibrium_game
               ~subsidies:nash_equilibrium.Subsidization.Nash.subsidies));
      Test.make ~name:"kernel:marginal-revenue-formula"
        (Staged.stage (fun () ->
             Subsidization.Revenue.marginal_formula equilibrium_game
               ~subsidies:nash_equilibrium.Subsidization.Nash.subsidies));
      (* solver ablation: iterated best response vs the extragradient VI
         iteration on the same game *)
      Test.make ~name:"ablation:nash-best-response"
        (Staged.stage (fun () -> Subsidization.Nash.solve equilibrium_game));
      Test.make ~name:"ablation:nash-extragradient"
        (Staged.stage (fun () ->
             Subsidization.Nash.solve_vi ~tol:1e-8 equilibrium_game));
      Test.make ~name:"dynamics:gradient-flow-100steps"
        (Staged.stage (fun () ->
             Subsidization.Dynamics.gradient_flow ~horizon:25. ~dt:0.25
               equilibrium_game ~x0:(Numerics.Vec.zeros 8)));
      Test.make ~name:"longrun:10-period-path"
        (Staged.stage (fun () ->
             Subsidization.Longrun.simulate
               ~params:
                 { Subsidization.Longrun.default_params with Subsidization.Longrun.periods = 10 }
               fig7_11_sys ~price:0.8 ~cap:1.0));
      Test.make ~name:"duopoly:market-eval-q1"
        (Staged.stage
           (let duopoly =
              Subsidization.Duopoly.make
                ~cps:(Subsidization.Scenario.fig7_11_cps ())
                ~capacity_a:0.5 ~capacity_b:0.5 ~cap:1.0 ()
            in
            fun () -> Subsidization.Duopoly.market_at duopoly ~prices:(0.8, 0.8)));
    ]

(* sub-microsecond kernels get their own bechamel run: at the shared
   0.5 s quota kernel:utilization-equilibrium regressed with r^2 = 0.49,
   so this group trades wall clock for a larger, better-conditioned
   sample *)
let fast_tests =
  Test.make_grouped ~name:"subsidization"
    [
      Test.make ~name:"kernel:utilization-equilibrium"
        (Staged.stage (fun () ->
             Subsidization.System.solve fig45_sys
               ~charges:(Numerics.Vec.make 9 0.5)));
    ]

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ~stabilize:true ()
  in
  let fast_cfg =
    Benchmark.cfg ~limit:3000 ~quota:(Time.second 2.0) ~kde:None ~stabilize:true ()
  in
  let results = Analyze.all ols Instance.monotonic_clock (Benchmark.all cfg instances tests) in
  let fast_results =
    Analyze.all ols Instance.monotonic_clock (Benchmark.all fast_cfg instances fast_tests)
  in
  let table = Report.Table.make ~columns:[ "benchmark"; "time/run"; "r^2" ] in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) fast_results rows in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let records =
    List.map
      (fun (name, ols) ->
        let time_ns =
          match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> Float.nan
        in
        let r2 = Analyze.OLS.r_square ols in
        let pretty =
          if Float.is_nan time_ns then "n/a"
          else if time_ns > 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
          else if time_ns > 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
          else if time_ns > 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
          else Printf.sprintf "%.0f ns" time_ns
        in
        Report.Table.add_row table
          [ name; pretty; (match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "-") ];
        (name, time_ns, r2))
      rows
  in
  print_newline ();
  print_endline "==================================================================";
  print_endline " Bechamel timings (monotonic clock, OLS on run count)";
  print_endline "==================================================================";
  print_endline (Report.Table.to_string table);
  records

(* ------------------------------------------------------------------ *)
(* parallel scaling: the two heaviest grid experiments, rerun at
   --jobs 1 and at the configured domain count; the determinism
   contract makes the outputs bit-identical, so only the wall clock
   may differ *)

let jobs_compare () =
  let configured = Parallel.Runtime.jobs () in
  let levels = if configured = 1 then [ 1 ] else [ 1; configured ] in
  let time_figure id =
    let e = Experiments.Registry.find_exn id in
    let t0 = Obs.Clock.now () in
    ignore (Experiments.Common.run e);
    Obs.Clock.elapsed ~since:t0
  in
  let rows =
    List.map
      (fun n ->
        Parallel.Runtime.set_jobs n;
        (n, time_figure "capacity", time_figure "duopoly"))
      levels
  in
  Parallel.Runtime.set_jobs configured;
  print_newline ();
  print_endline "==================================================================";
  print_endline " Parallel scaling (capacity + duopoly regeneration)";
  print_endline "==================================================================";
  let table = Report.Table.make ~columns:[ "jobs"; "capacity"; "duopoly" ] in
  List.iter
    (fun (n, cap_s, duo_s) ->
      Report.Table.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.2f s" cap_s;
          Printf.sprintf "%.2f s" duo_s;
        ])
    rows;
  print_endline (Report.Table.to_string table);
  rows

(* ------------------------------------------------------------------ *)
(* machine-readable perf record *)

let parallel_json ~stats ~compare : Obs.Json.t =
  let open Obs.Json in
  let compare_row (n, cap_s, duo_s) =
    Obj
      [
        ("jobs", Num (float_of_int n));
        ("capacity_seconds", Num cap_s);
        ("duopoly_seconds", Num duo_s);
      ]
  in
  let stat_fields =
    match stats with
    | None -> [ ("domains", Num (float_of_int (Parallel.Runtime.jobs ()))) ]
    | Some s ->
      [
        ("domains", Num (float_of_int s.Parallel.Pool.domains));
        ("batches", Num (float_of_int s.Parallel.Pool.batches));
        ( "tasks_per_domain",
          Arr
            (Array.to_list
               (Array.map (fun n -> Num (float_of_int n)) s.Parallel.Pool.tasks_run)) );
      ]
  in
  Obj (stat_fields @ [ ("jobs_compare", Arr (List.map compare_row compare)) ])

let perf_record ~figures ~benchmarks ~parallel : Obs.Json.t =
  let open Obs.Json in
  let figure r =
    let shared_fields =
      match r.shared with
      | None -> []
      | Some (s : Experiments.Eq_sweep.shared_stats) ->
        [
          ("shared_with", Str "eq_sweep");
          ("shared_root_calls", Num (float_of_int s.Experiments.Eq_sweep.root_calls));
          ( "shared_objective_evaluations",
            Num s.Experiments.Eq_sweep.objective_evaluations );
        ]
    in
    Obj
      ([
         ("id", Str r.fig_id);
         ("seconds", Num r.seconds);
         ("root_calls", Num (float_of_int r.root_calls));
         ("objective_evaluations", Num r.objective_evaluations);
         ("deriv_ad", Num r.deriv_ad);
         ("deriv_fd", Num r.deriv_fd);
         ("continuation_steps", Num r.continuation.Numerics.Continuation.steps);
         ( "predictor_accepts",
           Num r.continuation.Numerics.Continuation.predictor_accepts );
         ( "corrector_iterations",
           Num r.continuation.Numerics.Continuation.corrector_iterations );
         ("fallbacks", Num r.continuation.Numerics.Continuation.fallbacks);
       ]
      @ shared_fields)
  in
  let benchmark (name, time_ns, r2) =
    Obj
      [
        ("name", Str name);
        ("time_per_run_ns", Num time_ns);
        ("r_square", match r2 with Some r -> Num r | None -> Null);
      ]
  in
  Obj
    [
      ("schema", Str "bench.v1");
      ("generated_unix", Num (Obs.Clock.now ()));
      ( "regeneration_seconds",
        Num (List.fold_left (fun acc r -> acc +. r.seconds) 0. figures) );
      ("figures", Arr (List.map figure figures));
      ("parallel", parallel);
      ("benchmarks", Arr (List.map benchmark benchmarks));
    ]

(* ------------------------------------------------------------------ *)
(* regression gate: bench.v1 vs bench.v1 via Obs.Bench_diff *)

let tolerance = ref Obs.Bench_diff.default_tolerance

let load_record path =
  match Obs.Bench_diff.load_file ~path with
  | Ok json -> json
  | Error msg ->
    Printf.eprintf "bench: %s\n" msg;
    exit 2

(* slowdown injection scales only the in-memory comparison copy — the
   record written by --json stays honest *)
let apply_injections by json =
  if by = [] then json else Obs.Bench_diff.scale_seconds json ~by

let run_diff ~baseline_path ~baseline ~current =
  match Obs.Bench_diff.diff ~tolerance:!tolerance ~baseline ~current () with
  | Error msg ->
    Printf.eprintf "bench: diff failed: %s\n" msg;
    exit 2
  | Ok report ->
    print_newline ();
    print_endline "==================================================================";
    Printf.printf " Perf comparison vs %s\n" baseline_path;
    print_endline "==================================================================";
    print_endline (Report.Table.to_string (Obs.Bench_diff.table report));
    print_endline (Obs.Bench_diff.summary report);
    if Obs.Bench_diff.ok report then 0 else 1

let () =
  let json_path = ref None in
  let compare_path = ref None in
  let diff_request = ref None in
  let diff_old = ref "" in
  let figure_ids = ref None in
  let no_bechamel = ref false in
  let no_jobs_compare = ref false in
  let injections = ref [] in
  let set_injection spec =
    let bad () =
      raise (Arg.Bad (Printf.sprintf "--inject-slowdown expects ID=FACTOR, got %S" spec))
    in
    match String.index_opt spec '=' with
    | None -> bad ()
    | Some i -> (
      let id = String.sub spec 0 i in
      let f = String.sub spec (i + 1) (String.length spec - i - 1) in
      match float_of_string_opt f with
      | Some factor when id <> "" && Float.is_finite factor && factor > 0. ->
        injections := !injections @ [ (id, factor) ]
      | _ -> bad ())
  in
  Arg.parse
    [
      ( "--json",
        Arg.String (fun p -> json_path := Some p),
        "FILE  also write a bench.v1 perf record (BENCH_<id>.json)" );
      ( "--jobs",
        Arg.Int Parallel.Runtime.set_jobs,
        "N  domains for grid-parallel evaluation (default: SUBSIDIZATION_JOBS \
         or the recommended domain count)" );
      ( "--compare",
        Arg.String (fun p -> compare_path := Some p),
        "OLD.json  after running, diff this run's record against a baseline \
         bench.v1 record; exit 1 on regression" );
      ( "--diff",
        Arg.Tuple
          [
            Arg.Set_string diff_old;
            Arg.String (fun p -> diff_request := Some (!diff_old, p));
          ],
        "OLD NEW  compare two existing bench.v1 records and exit — runs no \
         benchmarks" );
      ( "--figures",
        Arg.String
          (fun s ->
            figure_ids :=
              Some (List.filter (fun x -> x <> "") (String.split_on_char ',' s))),
        "a,b,c  regenerate only these figure ids, [stress] included (skips the \
         jobs comparison)" );
      ("--no-bechamel", Arg.Set no_bechamel, "  skip the bechamel kernel timings");
      ( "--no-jobs-compare",
        Arg.Set no_jobs_compare,
        "  skip the parallel scaling comparison" );
      ( "--inject-slowdown",
        Arg.String set_injection,
        "ID=FACTOR  scale a figure's seconds in the comparison copy only — a \
         self-test hook for the regression gate, never written to --json" );
      ( "--tol-seconds",
        Arg.Float
          (fun x -> tolerance := { !tolerance with Obs.Bench_diff.seconds_rel = x }),
        "R  relative tolerance on figure seconds (default 0.5)" );
      ( "--tol-counts",
        Arg.Float
          (fun x -> tolerance := { !tolerance with Obs.Bench_diff.counts_rel = x }),
        "R  relative tolerance on solver-work counts (default 0.02)" );
    ]
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    "bench [--json FILE] [--jobs N] [--figures a,b] [--compare OLD.json] \
     [--diff OLD NEW] [--no-bechamel] [--no-jobs-compare]";
  (* pure diff mode: compare two records on disk, run nothing *)
  (match !diff_request with
  | Some (old_path, new_path) ->
    let baseline = load_record old_path in
    let current = apply_injections !injections (load_record new_path) in
    exit (run_diff ~baseline_path:old_path ~baseline ~current)
  | None -> ());
  let experiments =
    match !figure_ids with
    | None -> Experiments.Registry.all
    | Some ids ->
      let known =
        stress_id
        :: List.map (fun (e : Experiments.Common.t) -> e.Experiments.Common.id)
             Experiments.Registry.all
      in
      List.iter
        (fun id ->
          if not (List.mem id known) then begin
            Printf.eprintf "bench: unknown figure id %S (known: %s)\n" id
              (String.concat ", " known);
            exit 2
          end)
        ids;
      List.filter
        (fun (e : Experiments.Common.t) -> List.mem e.Experiments.Common.id ids)
        Experiments.Registry.all
  in
  let failures, figures = regenerate experiments in
  let figures =
    match !figure_ids with
    | Some ids when not (List.mem stress_id ids) -> figures
    | _ -> figures @ stress ()
  in
  (* capture the pool counters of the main regeneration pass before the
     scaling comparison recreates the pool *)
  let pool_stats = Parallel.Runtime.stats () in
  let jc_rows =
    if !no_jobs_compare then []
    else if !figure_ids <> None then begin
      print_endline "\n[jobs-compare skipped: --figures selects a subset]";
      []
    end
    else jobs_compare ()
  in
  (* part 2 times serial kernels: shut the pool down first, because
     even idle worker domains take part in every stop-the-world minor
     collection and would distort sub-microsecond loops *)
  Parallel.Runtime.shutdown ();
  let benchmarks = if !no_bechamel then [] else run_benchmarks () in
  let record =
    perf_record ~figures ~benchmarks
      ~parallel:(parallel_json ~stats:pool_stats ~compare:jc_rows)
  in
  (match !json_path with
  | Some path ->
    Obs.Export.write_json ~path record;
    if path <> "-" then Printf.printf "\nperf record written to %s\n" path
  | None -> ());
  let diff_status =
    match !compare_path with
    | None -> 0
    | Some path ->
      run_diff ~baseline_path:path ~baseline:(load_record path)
        ~current:(apply_injections !injections record)
  in
  if failures > 0 then begin
    Printf.printf "\n%d experiment(s) had failing shape checks\n" failures;
    exit 1
  end
  else begin
    print_endline "\nAll figure shape checks passed.";
    if diff_status <> 0 then exit diff_status
  end
