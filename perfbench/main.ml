(* The repository benchmark. See README.md beside this file.

     main.exe --cli BIN --workload NAME --seed N --seconds S --trace 0|1
     main.exe --cli BIN --self-test
     main.exe --write-reference DIR

   --trace 0 prints every end-to-end metric, --trace 1 every per-layer
   metric; the final stdout line is the JSON result. Exit 1 when an
   output check fails. *)

let workloads =
  [ "figures-serial"; "figures-parallel"; "serve-cold"; "serve-parallel"; "serve-repeat" ]

(* Every per-layer metric, in BENCHMARK.json order. A workload that
   does not exercise a layer reports 0 for it. *)
let per_layer_names =
  List.map (fun id -> Printf.sprintf "experiments.%s.s" id) Figures.timed_ids
  @ [
      "numerics.robust.root_calls";
      "numerics.robust.evals";
      "numerics.robust.fallbacks";
      "numerics.robust.failures";
      "numerics.continuation.steps";
      "numerics.continuation.accepts";
      "numerics.continuation.accept_ratio";
      "numerics.continuation.corrector_iters";
      "numerics.continuation.fallbacks";
      "numerics.ad.passes";
      "numerics.diff.estimates";
      "core.system.self_s";
      "core.nash.self_s";
      "game.best_response.self_s";
      "core.nash.solve_us";
      "core.nash.sweeps";
      "parallel.pool.batches";
      "parallel.pool.tasks_d0";
      "parallel.pool.tasks_d1";
      "parallel.pool.task_imbalance";
      "parallel.cpu_per_wall";
      "process.gc.minor";
      "process.gc.major";
      "process.gc.promoted_mw";
      "service.proto.decode_us";
      "service.proto.encode_us";
      "service.cache.fingerprint_us";
      "service.cache.find_us";
      "service.cache.warm_start_us";
      "service.cache.store_us";
      "service.cache.hit_ratio";
      "service.cache.warm_ratio";
      "service.journal.append_us";
      "service.daemon.cpu_us_per_req";
      "service.server.solve_s_p50";
      "reconcile.stage_sum_ms";
      "reconcile.unexplained_ms";
      "loadgen.latency_p50_ms";
      "loadgen.latency_p99_ms";
      "loadgen.phase_p99_ms";
      "loadgen.goodput_rps";
      "loadgen.lag_ms_p99";
      "trace.dropped";
      "trace.self_experiments";
      "trace.overhead_ratio";
      "fail_ratio";
      "workload.fresh_share";
      "workload.repeat_share";
      "workload.neighbour_share";
      "workload.cps_1_share";
      "workload.cps_2_share";
      "workload.cps_3_share";
      "workload.cps_4_share";
      "host.nproc";
      "host.ocaml_version";
    ]

let unit_of name =
  let ends s = Filename.check_suffix name s in
  if ends "_us" || ends "_us_per_req" then "us"
  else if ends "_ms" || ends "_ms_p99" then "ms"
  else if ends "_rps" then "1/s"
  else if ends ".s" || ends "_s" || ends "_s_p50" then "s"
  else if ends "_mw" then "Mword"
  else if ends "_ratio" || ends "_share" || ends "imbalance" || ends "cpu_per_wall" then "ratio"
  else if name = "host.ocaml_version" then "version"
  else "count"

(* A workload's per-layer (name, value) pairs, ordered, given their
   units and padded to the full list. *)
let complete ~attempted ~failed pairs =
  let all =
    pairs
    @ [
        ("fail_ratio", Measure.ratio (float_of_int failed) (float_of_int attempted));
        ("host.nproc", float_of_int (Measure.nproc ()));
        ("host.ocaml_version", Measure.ocaml_version_code ());
      ]
  in
  List.map
    (fun name ->
      Measure.metric name (unit_of name) (Option.value ~default:0. (List.assoc_opt name all)))
    per_layer_names

let run_workload ~cli ~workload ~seed ~seconds ~trace =
  let exe = Sys.executable_name in
  let seconds = float_of_int seconds in
  let traced (attempted, failed, pairs) = (attempted, failed, complete ~attempted ~failed pairs) in
  let attempted, failed, metrics =
    match (workload, trace) with
    | "figures-serial", false -> Figures.end_to_end ~exe ~jobs:1 ~seconds
    | "figures-parallel", false -> Figures.end_to_end ~exe ~jobs:2 ~seconds
    | "figures-serial", true -> traced (Figures.per_layer ~exe ~jobs:1)
    | "figures-parallel", true -> traced (Figures.per_layer ~exe ~jobs:2)
    | "serve-cold", false -> Serve.end_to_end ~cli Serve.cold ~seed ~seconds
    | "serve-parallel", false -> Serve.end_to_end ~cli Serve.parallel ~seed ~seconds
    | "serve-repeat", false -> Serve.end_to_end ~cli Serve.repeat ~seed ~seconds
    | "serve-cold", true -> traced (Serve.per_layer ~cli Serve.cold ~seed ~seconds)
    | "serve-parallel", true -> traced (Serve.per_layer ~cli Serve.parallel ~seed ~seconds)
    | "serve-repeat", true -> traced (Serve.per_layer ~cli Serve.repeat ~seed ~seconds)
    | _ -> invalid_arg workload
  in
  Printf.printf "%s: fail_ratio %.6f (%d of %d failed)\n" workload
    (Measure.ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  let correct = failed = 0 in
  Measure.print_result ~correct ~attempted ~failed metrics;
  if correct then 0 else 1

let write_reference dir =
  Parallel.Runtime.set_jobs 1;
  List.iter
    (fun e ->
      let outcome = Experiments.Common.run e in
      Experiments.Common.save outcome ~dir;
      print_endline (Experiments.Common.shape_summary outcome))
    Experiments.Registry.all;
  0

let usage () =
  prerr_endline
    "usage: main.exe --cli BIN --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --cli BIN --self-test\n\
    \       main.exe --write-reference DIR";
  Printf.eprintf "workloads: %s\n" (String.concat ", " workloads);
  2

(* Flags take one value each, except the three switches. *)
let parse args =
  let rec go acc = function
    | ("--regen" | "--self-test" | "--setup-only") as flag :: rest -> go ((flag, "") :: acc) rest
    | flag :: value :: rest -> go ((flag, value) :: acc) rest
    | [ flag ] -> go ((flag, "") :: acc) []
    | [] -> acc
  in
  go [] args

let () =
  (* exit (and so reap any daemon) on SIGTERM/SIGINT *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ];
  let opts = parse (List.tl (Array.to_list Sys.argv)) in
  let get k = List.assoc_opt k opts in
  let int k = Option.bind (get k) int_of_string_opt in
  let code =
    match (get "--regen", get "--self-test", get "--write-reference") with
    | Some _, _, _ -> (
      match (int "--jobs", int "--trace", get "--out") with
      | Some jobs, Some trace, Some out ->
        Figures.child ~jobs ~trace:(trace = 1) ~setup_only:(get "--setup-only" <> None) ~out;
        0
      | _ -> usage ())
    | None, Some _, _ -> (
      match get "--cli" with Some cli -> Selftest.run ~cli | None -> usage ())
    | None, None, Some dir -> write_reference dir
    | None, None, None -> (
      match (get "--cli", get "--workload", int "--seed", int "--seconds", int "--trace") with
      | Some cli, Some workload, Some seed, Some seconds, Some (0 | 1 as trace)
        when List.mem workload workloads && seconds > 0 ->
        run_workload ~cli ~workload ~seed ~seconds ~trace:(trace = 1)
      | _ -> usage ())
  in
  exit code
