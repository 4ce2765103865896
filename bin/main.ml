(* Command-line interface: regenerate any of the paper's figures, run
   the theorem-verification suite, explore custom market points, or
   drive the supervised runner (deadlines, retries, crash-safe
   manifests, chaos sweeps). *)

open Cmdliner

let dir_arg =
  let doc = "Directory for CSV output (one subdirectory per experiment)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"DIR" ~doc)

let plots_arg =
  let doc = "Render ASCII plots alongside the tables." in
  Arg.(value & flag & info [ "plots" ] ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON trace of the run to $(docv) (load it in \
     chrome://tracing or Perfetto); '-' prints the JSON as the final stdout line. \
     Tracing is enabled only when this flag is present."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Export the metrics registry (solver counters, latency histograms, experiment \
     timings) as JSON to $(docv); '-' prints the JSON as the final stdout line."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Domains used for grid-parallel experiment evaluation. Defaults to the \
     $(b,SUBSIDIZATION_JOBS) environment variable, then to the machine's \
     recommended domain count. Results are bit-identical at every value; only \
     the wall clock changes."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let apply_jobs = function Some n -> Parallel.Runtime.set_jobs n | None -> ()

(* -- logging options ------------------------------------------------ *)

let log_level_arg =
  let levels =
    [
      ("debug", Obs.Log.Debug);
      ("info", Obs.Log.Info);
      ("warn", Obs.Log.Warn);
      ("error", Obs.Log.Error);
    ]
  in
  let doc = "Structured-log threshold: one of debug, info, warn, error." in
  Arg.(value & opt (enum levels) Obs.Log.Info & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let log_json_arg =
  let doc = "Emit logs as JSONL (one compact JSON object per line) on stderr." in
  Arg.(value & flag & info [ "log-json" ] ~doc)

let apply_logging ~level ~json =
  Obs.Log.set_level level;
  if json then Obs.Log.set_sink (Obs.Log.Jsonl stderr)

let log_error_exit2 ~m msg =
  Obs.Log.error ~m msg;
  2

(* -- supervision options ------------------------------------------- *)

let deadline_arg =
  let doc =
    "Wall-clock deadline per experiment, in seconds: the cooperative watchdog \
     aborts any experiment that exceeds it and records a timed_out manifest entry."
  in
  Arg.(value & opt (some float) None & info [ "deadline-s" ] ~docv:"S" ~doc)

let max_evals_arg =
  let doc =
    "Objective-evaluation budget per experiment; exceeding it records an \
     out_of_budget manifest entry."
  in
  Arg.(value & opt (some int) None & info [ "max-evals" ] ~docv:"N" ~doc)

let retries_arg =
  let doc =
    "Retry an experiment up to $(docv) extra times on retryable (typed solver) \
     failures, with exponential backoff."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let backoff_arg =
  let doc = "Backoff before the first retry, in seconds (doubles per retry)." in
  Arg.(value & opt float 0.5 & info [ "backoff-s" ] ~docv:"S" ~doc)

let manifest_arg =
  let doc =
    "Persist a run.v1 manifest to $(docv), rewritten atomically after every \
     experiment; a crash mid-sweep leaves a loadable record of the prefix that ran."
  in
  Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Load the --manifest file first and skip experiments already recorded \
     successful (completed with every shape check passing)."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let inject_crash_arg =
  let doc =
    "Append a deliberately crashing synthetic experiment to the sweep (supervision \
     self-test: the sweep must finish, record the failure, and exit non-zero)."
  in
  Arg.(value & flag & info [ "inject-crash" ] ~doc)

let limits_of ~deadline_s ~max_evals =
  match (deadline_s, max_evals) with
  | None, None -> Runner.Watchdog.no_limits
  | _ -> Runner.Watchdog.limits ?deadline_s ?max_evals ()

let retry_of ~retries ~backoff_s =
  Runner.Supervisor.retry ~max_attempts:(retries + 1) ~backoff_s ()

let print_solver_telemetry () =
  Printf.printf "\n-- solver telemetry --\n%s\n" (Numerics.Robust.stats_summary ());
  Printf.printf "derivatives: %.0f AD passes, %.0f FD stencils\n"
    (Numerics.Ad.stats ()).Numerics.Ad.passes
    (Numerics.Diff.stats ()).Numerics.Diff.estimates;
  Printf.printf "%s\n" (Numerics.Continuation.stats_summary ());
  let per_layer = Obs.Export.telemetry_table () in
  if Report.Table.row_count per_layer > 0 then
    Printf.printf "\n%s\n" (Report.Table.to_string per_layer)

(* run [f] with tracing switched on when requested, then write the
   requested exports; '-' targets deliberately come last on stdout so
   `... --metrics - | tail -n 1` is parseable JSON *)
let with_observability ~trace ~metrics f =
  (match trace with
  | Some _ ->
    Obs.Trace.clear ();
    Obs.Trace.set_enabled true
  | None -> ());
  let code = f () in
  (match trace with
  | Some path ->
    Obs.Trace.set_enabled false;
    Obs.Export.write_json ~path (Obs.Export.trace_json ());
    if path <> "-" then
      Printf.printf "trace (%d spans) written to %s\n" (List.length (Obs.Trace.spans ())) path
  | None -> ());
  (match metrics with
  | Some path ->
    Obs.Export.write_json ~path (Obs.Export.metrics_json ());
    if path <> "-" then Printf.printf "metrics written to %s\n" path
  | None -> ());
  code

let run_experiment id dir plots trace metrics jobs deadline_s max_evals retries backoff_s =
  apply_jobs jobs;
  with_observability ~trace ~metrics @@ fun () ->
  let experiment = Experiments.Registry.find_exn id in
  let limits = limits_of ~deadline_s ~max_evals in
  let retry = retry_of ~retries ~backoff_s in
  let { Runner.Supervisor.entry; outcome } =
    Runner.Supervisor.supervise ~limits ~retry experiment
  in
  (match outcome with
  | Some outcome ->
    Experiments.Common.print ~plots ~out:stdout outcome;
    print_solver_telemetry ();
    (match dir with
    | Some dir ->
      Experiments.Common.save outcome ~dir;
      Printf.printf "\nCSV written under %s/%s/\n" dir id
    | None -> ())
  | None ->
    Printf.printf "%s: %s (%s)\n" id
      (Runner.Manifest.status_to_string entry.Runner.Manifest.status)
      entry.Runner.Manifest.exit_reason;
    (match entry.Runner.Manifest.status with
    | Runner.Manifest.Failed { backtrace; _ } when backtrace <> "" ->
      Printf.printf "%s\n" backtrace
    | _ -> ()));
  if Runner.Manifest.successful entry then 0 else 1

let experiment_cmd (e : Experiments.Common.t) =
  let doc = Printf.sprintf "Reproduce %s (%s)." e.Experiments.Common.title e.Experiments.Common.paper_ref in
  let term =
    Term.(
      const (fun dir plots trace metrics jobs deadline_s max_evals retries backoff_s ->
          run_experiment e.Experiments.Common.id dir plots trace metrics jobs
            deadline_s max_evals retries backoff_s)
      $ dir_arg $ plots_arg $ trace_arg $ metrics_arg $ jobs_arg $ deadline_arg
      $ max_evals_arg $ retries_arg $ backoff_arg)
  in
  Cmd.v (Cmd.info e.Experiments.Common.id ~doc) term

(* ------------------------------------------------------------------ *)
(* all: the supervised sweep *)

let crashing_experiment =
  {
    Experiments.Common.id = "crashme";
    title = "deliberately crashing experiment (--inject-crash)";
    paper_ref = "supervision self-test";
    run = (fun () -> failwith "injected crash (--inject-crash)");
  }

let print_sweep_event dir = function
  | Runner.Supervisor.Started _ -> ()
  | Runner.Supervisor.Skipped { id } ->
    Printf.printf "%s: skipped (recorded successful in manifest)\n%!" id
  | Runner.Supervisor.Retrying { id; next_attempt; backoff_s; reason } ->
    Printf.printf "%s: retrying (attempt %d) after %.2fs backoff: %s\n%!" id
      next_attempt backoff_s reason
  | Runner.Supervisor.Finished { entry; outcome } -> (
    match outcome with
    | Some outcome ->
      print_endline (Experiments.Common.shape_summary outcome);
      (* Common.run resets solver telemetry per experiment, so the
         line printed after each figure is that figure's own count,
         not the running total across the whole `all` sweep *)
      Printf.printf "  telemetry: %s\n%!" (Numerics.Robust.stats_summary ());
      (match dir with Some dir -> Experiments.Common.save outcome ~dir | None -> ())
    | None ->
      Printf.printf "%s: %s (%s)\n%!" entry.Runner.Manifest.id
        (Runner.Manifest.status_to_string entry.Runner.Manifest.status)
        entry.Runner.Manifest.exit_reason)

let all_cmd =
  let doc =
    "Run every experiment under the supervised lifecycle: one-line summary per \
     figure, crash containment, optional deadlines/retries, and a crash-safe \
     resumable manifest."
  in
  let run dir trace metrics jobs deadline_s max_evals retries backoff_s manifest
      resume inject_crash =
    apply_jobs jobs;
    with_observability ~trace ~metrics @@ fun () ->
    if resume && manifest = None then
      log_error_exit2 ~m:"cli" "--resume requires --manifest FILE"
    else begin
      let experiments =
        Experiments.Registry.all @ (if inject_crash then [ crashing_experiment ] else [])
      in
      let limits = limits_of ~deadline_s ~max_evals in
      let retry = retry_of ~retries ~backoff_s in
      match
        Runner.Supervisor.sweep ~limits ~retry ?manifest_path:manifest ~resume
          ~on_event:(print_sweep_event dir) experiments
      with
      | Error msg -> log_error_exit2 ~m:"cli" ("cannot load manifest: " ^ msg)
      | Ok { Runner.Supervisor.manifest = m; ran; skipped; failed } ->
        Printf.printf "\n-- run manifest (%d ran, %d skipped, %d failed) --\n%s\n" ran
          skipped failed
          (Report.Table.to_string (Runner.Manifest.summary_table m));
        (match manifest with
        | Some path -> Printf.printf "manifest written to %s\n" path
        | None -> ());
        if failed = 0 then 0 else 1
    end
  in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const run $ dir_arg $ trace_arg $ metrics_arg $ jobs_arg $ deadline_arg
      $ max_evals_arg $ retries_arg $ backoff_arg $ manifest_arg $ resume_arg
      $ inject_crash_arg)

(* ------------------------------------------------------------------ *)
(* chaos: fault modes x registry *)

let modes_arg =
  let doc =
    "Comma-separated fault scenarios to sweep (subset of nan-region, nan-after, \
     spike, budget, plateau); default all."
  in
  Arg.(value & opt (some string) None & info [ "modes" ] ~docv:"LIST" ~doc)

let only_arg =
  let doc = "Comma-separated experiment ids to include; default the full registry." in
  Arg.(value & opt (some string) None & info [ "only" ] ~docv:"LIST" ~doc)

let chaos_deadline_arg =
  let doc = "Wall-clock deadline per (scenario, experiment) pair, in seconds." in
  Arg.(value & opt float 20. & info [ "deadline-s" ] ~docv:"S" ~doc)

let split_csv s = String.split_on_char ',' s |> List.map String.trim

let chaos_cmd =
  let doc =
    "Sweep Numerics.Fault modes across the experiment registry, asserting every \
     experiment completes or degrades gracefully: no hang, no escaped exception, \
     and a schema-valid run.v1 manifest entry per (scenario, experiment) pair."
  in
  let run deadline_s modes only manifest jobs =
    apply_jobs jobs;
    let scenarios =
      match modes with
      | None -> Runner.Chaos.default_scenarios
      | Some list ->
        let wanted = split_csv list in
        let known = Runner.Chaos.default_scenarios in
        List.map
          (fun name ->
            match List.find_opt (fun s -> s.Runner.Chaos.name = name) known with
            | Some s -> s
            | None ->
              invalid_arg
                (Printf.sprintf "unknown chaos mode %S (known: %s)" name
                   (String.concat ", "
                      (List.map (fun s -> s.Runner.Chaos.name) known))))
          wanted
    in
    let experiments =
      match only with
      | None -> Experiments.Registry.all
      | Some list -> List.map Experiments.Registry.find_exn (split_csv list)
    in
    let limits = Runner.Watchdog.limits ~deadline_s () in
    let report =
      Runner.Chaos.run ~limits ~scenarios ~experiments ?manifest_path:manifest
        ~on_event:(fun event ->
          match event with
          | Runner.Supervisor.Started { id; _ } -> Printf.printf "chaos: %s...\n%!" id
          | _ -> ())
        ()
    in
    Printf.printf "\n%s\n" (Report.Table.to_string (Runner.Chaos.verdict_table report));
    let n = List.length report.Runner.Chaos.verdicts in
    if report.Runner.Chaos.ok then begin
      Printf.printf "chaos: all %d (scenario, experiment) pairs contained\n" n;
      0
    end
    else begin
      Printf.printf "chaos: CONTAINMENT BREACH in %d of %d pairs\n"
        (List.length
           (List.filter (fun v -> not v.Runner.Chaos.contained) report.Runner.Chaos.verdicts))
        n;
      1
    end
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ chaos_deadline_arg $ modes_arg $ only_arg $ manifest_arg
      $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* custom markets from CSV *)

let market_arg =
  let doc =
    "CSV file defining the CP population (columns: name,alpha,beta,value[,m0,l0]); \
     defaults to the paper's 8-CP market."
  in
  Arg.(value & opt (some file) None & info [ "market" ] ~docv:"FILE" ~doc)

(* [Ok cps] or [Error message]; a malformed market file is an operator
   input error, reported on stderr with exit code 2 *)
let cps_of ?market () =
  match market with
  | None -> Ok (Subsidization.Scenario.fig7_11_cps ())
  | Some path ->
    Result.map_error Experiments.Market_io.error_to_string
      (Experiments.Market_io.cps_of_csv path)

let with_market ?market f =
  match cps_of ?market () with
  | Error msg -> log_error_exit2 ~m:"cli" ("bad --market file: " ^ msg)
  | Ok cps -> f cps

(* ------------------------------------------------------------------ *)
(* nash: solve one market point *)

let price_arg =
  Arg.(value & opt float 0.8 & info [ "p"; "price" ] ~docv:"PRICE" ~doc:"ISP usage price.")

let cap_arg =
  Arg.(value & opt float 1.0 & info [ "q"; "cap" ] ~docv:"CAP" ~doc:"Subsidy cap (policy).")

let capacity_arg =
  Arg.(value & opt float 1.0 & info [ "mu"; "capacity" ] ~docv:"MU" ~doc:"ISP capacity.")

let nash_cmd =
  let doc =
    "Solve the subsidization game on the paper's 8-CP population at one (price, cap) point."
  in
  let run price cap capacity market trace metrics =
    with_observability ~trace ~metrics @@ fun () ->
    with_market ?market @@ fun cps ->
    Numerics.Robust.reset_stats ();
    let sys = Subsidization.System.make ~cps ~capacity () in
    let game = Subsidization.Subsidy_game.make sys ~price ~cap in
    let eq = Subsidization.Nash.solve game in
    let table =
      Report.Table.make ~columns:[ "cp"; "subsidy"; "charge"; "population"; "throughput"; "utility" ]
    in
    Array.iteri
      (fun i cp ->
        Report.Table.add_row table
          [
            cp.Econ.Cp.name;
            Printf.sprintf "%.4f" eq.Subsidization.Nash.subsidies.(i);
            Printf.sprintf "%.4f" eq.Subsidization.Nash.state.Subsidization.System.charges.(i);
            Printf.sprintf "%.4f" eq.Subsidization.Nash.state.Subsidization.System.populations.(i);
            Printf.sprintf "%.4f" eq.Subsidization.Nash.state.Subsidization.System.throughputs.(i);
            Printf.sprintf "%.4f" eq.Subsidization.Nash.utilities.(i);
          ])
      sys.Subsidization.System.cps;
    print_endline (Report.Table.to_string table);
    Printf.printf
      "\nphi=%.4f  aggregate theta=%.4f  ISP revenue=%.4f  welfare=%.4f\n\
       converged=%b in %d sweeps, KKT residual=%.2e\n"
      eq.Subsidization.Nash.state.Subsidization.System.phi
      eq.Subsidization.Nash.state.Subsidization.System.aggregate
      (price *. eq.Subsidization.Nash.state.Subsidization.System.aggregate)
      (Subsidization.Welfare.of_equilibrium game eq)
      eq.Subsidization.Nash.converged eq.Subsidization.Nash.sweeps
      eq.Subsidization.Nash.kkt_residual;
    print_solver_telemetry ();
    if eq.Subsidization.Nash.converged then 0 else 1
  in
  Cmd.v (Cmd.info "nash" ~doc)
    Term.(
      const run $ price_arg $ cap_arg $ capacity_arg $ market_arg $ trace_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* sweep: optimal ISP price per policy level *)

let sweep_cmd =
  let doc = "Sweep policy levels; report the ISP's optimal price and the market outcome." in
  let run capacity market =
    with_market ?market @@ fun cps ->
    let sys = Subsidization.System.make ~cps ~capacity () in
    let table = Report.Table.make ~columns:[ "q"; "p*"; "revenue"; "welfare"; "phi" ] in
    Array.iter
      (fun cap ->
        let point = Subsidization.Policy.optimal_price ~p_max:2.5 sys ~cap in
        Report.Table.add_floats table
          [
            cap;
            point.Subsidization.Policy.price;
            point.Subsidization.Policy.revenue;
            point.Subsidization.Policy.welfare;
            point.Subsidization.Policy.utilization;
          ])
      (Subsidization.Scenario.q_levels ());
    print_endline (Report.Table.to_string table);
    0
  in
  Cmd.v (Cmd.info "sweep" ~doc) Term.(const run $ capacity_arg $ market_arg)

(* ------------------------------------------------------------------ *)
(* serve / loadgen: equilibrium-as-a-service *)

let socket_arg =
  let doc = "Unix-domain socket path for the solve daemon." in
  Arg.(
    value
    & opt string "/tmp/subsidization.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Listen on (or connect to) TCP port $(docv) instead of the Unix socket." in
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "Numeric host address for --tcp (default loopback)." in
  Arg.(value & opt string "" & info [ "host" ] ~docv:"ADDR" ~doc)

let address_of ~socket ~tcp ~host =
  match tcp with
  | Some port -> Service.Server.Tcp { host; port }
  | None -> Service.Server.Unix_path socket

let seed_arg =
  let doc = "Seed for the daemon's (or load generator's) deterministic Rng streams." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc)

(* options [serve] and [serve-fleet] share; under [serve-fleet] each
   shard gets the bounds *)
let queue_arg =
  let doc = "Admission-queue bound; requests beyond it are shed with a typed answer." in
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)

let cache_arg =
  let doc = "Equilibrium-cache entries (LRU-bounded)." in
  Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N" ~doc)

let durable_arg =
  let doc = "fsync every journal append (power-loss durability; slower)." in
  Arg.(value & flag & info [ "durable" ] ~doc)

(* The daemon config [serve] and every [serve-fleet] shard start from:
   queue and cache bounds, journal durability, watchdog limits (the
   server's default unless a deadline or an evaluation budget is given),
   the retry policy and the Rng seed. *)
let daemon_config ~address ~queue ~cache ~durable ~deadline_s ~max_evals ~retries
    ~backoff_s ~seed =
  let base = Service.Server.default_config ~address in
  let limits =
    match (deadline_s, max_evals) with
    | None, None -> base.Service.Server.limits
    | _ -> Runner.Watchdog.limits ?deadline_s ?max_evals ()
  in
  {
    base with
    Service.Server.queue_capacity = queue;
    cache_capacity = cache;
    durable;
    limits;
    retry = Runner.Supervisor.retry ~max_attempts:(retries + 1) ~backoff_s ~jitter:0.5 ();
    seed = Int64.of_int seed;
  }

let serve_cmd =
  let journal_arg =
    let doc =
      "Append a crash-safe request journal to $(docv); on restart, un-acked \
       requests are re-solved and acked requests are never answered twice."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let snapshot_arg =
    let doc =
      "Persist the equilibrium cache to $(docv): loaded before journal replay \
       at startup, saved periodically and on clean shutdown, so a restarted \
       daemon answers repeated fingerprints from cache instead of re-solving."
    in
    Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"FILE" ~doc)
  in
  let snapshot_every_arg =
    let doc = "Seconds between periodic cache-snapshot saves (0 disables the timer)." in
    Arg.(value & opt float 30. & info [ "snapshot-every-s" ] ~docv:"S" ~doc)
  in
  let compact_bytes_arg =
    let doc =
      "Rewrite the journal (dropping acked and torn lines) whenever it grows \
       past $(docv) bytes; 0 disables compaction."
    in
    Arg.(value & opt int (1 lsl 20) & info [ "compact-bytes" ] ~docv:"BYTES" ~doc)
  in
  let allow_chaos_arg =
    let doc =
      "Accept chaos frames that install fault injection process-wide (soak \
       testing only)."
    in
    Arg.(value & flag & info [ "allow-chaos" ] ~doc)
  in
  let doc =
    "Run the solve daemon: Market_io JSON requests over a socket, admission \
     control, equilibrium caching with warm starts, watchdog limits and a \
     crash-safe request journal."
  in
  let run socket tcp host queue cache journal durable snapshot snapshot_every
      compact_bytes allow_chaos log_level log_json jobs deadline_s max_evals retries
      backoff_s seed =
    apply_jobs jobs;
    apply_logging ~level:log_level ~json:log_json;
    let address = address_of ~socket ~tcp ~host in
    let cfg =
      {
        (daemon_config ~address ~queue ~cache ~durable ~deadline_s ~max_evals ~retries
           ~backoff_s ~seed)
        with
        Service.Server.journal_path = journal;
        snapshot_path = snapshot;
        snapshot_every_s = (if snapshot_every > 0. then Some snapshot_every else None);
        journal_compact_bytes = (if compact_bytes > 0 then Some compact_bytes else None);
        allow_chaos;
      }
    in
    (* lifecycle, recovery and warning events reach stderr via the
       server's own Obs.Log routing; no stdout mirror needed *)
    match Service.Server.run cfg with
    | Ok () ->
      Obs.Log.info ~m:"serve" "drained cleanly";
      0
    | Error msg -> log_error_exit2 ~m:"serve" msg
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ tcp_arg $ host_arg $ queue_arg $ cache_arg
      $ journal_arg $ durable_arg $ snapshot_arg $ snapshot_every_arg
      $ compact_bytes_arg $ allow_chaos_arg $ log_level_arg
      $ log_json_arg $ jobs_arg $ deadline_arg $ max_evals_arg $ retries_arg
      $ backoff_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* serve-fleet: N sharded daemons under one supervisor process *)

let serve_fleet_cmd =
  let shards_arg =
    let doc = "Number of shard daemons to fork." in
    Arg.(value & opt int 3 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let dir_arg =
    let doc =
      "Fleet state directory: per-shard Unix sockets, journals and cache \
       snapshots live here, plus the fleet manifest."
    in
    Arg.(
      value
      & opt string "/tmp/subsidization-fleet"
      & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let manifest_out_arg =
    let doc =
      "Write the fleet.v1 manifest (shard names and addresses, the file \
       $(b,loadgen --fleet) consumes) to $(docv); default $(b,DIR/fleet.json)."
    in
    Arg.(value & opt (some string) None & info [ "fleet-manifest" ] ~docv:"FILE" ~doc)
  in
  let restart_arg =
    let doc =
      "Fork a replacement when a shard crashes; journal replay plus the cache \
       snapshot make the replacement pick up where the casualty left off. A \
       shard that fails at startup (bind error, unrecoverable journal) is \
       retired instead, and the command exits 1."
    in
    Arg.(value & flag & info [ "restart" ] ~doc)
  in
  let doc =
    "Fork N solve-daemon shards (consistent-hash fleet): one Unix socket, \
     crash-safe journal and cache snapshot per shard under --dir, a fleet.v1 \
     manifest for fleet-aware clients, SIGTERM/SIGINT forwarded to every \
     shard, optional automatic restart of casualties."
  in
  let run shards dir manifest_out restart queue cache durable log_level
      log_json jobs deadline_s max_evals retries backoff_s seed =
    apply_logging ~level:log_level ~json:log_json;
    if shards < 1 then log_error_exit2 ~m:"fleet" "--shards must be at least 1"
    else
      (* [layout] gives every shard its own address *)
      let configs =
        Service.Fleet.layout ~dir ~shards
          (daemon_config ~address:(Service.Server.Unix_path dir) ~queue ~cache ~durable
             ~deadline_s ~max_evals ~retries ~backoff_s ~seed)
      in
      match Report.Fsio.mkdir_p dir with
      | Error msg -> log_error_exit2 ~m:"fleet" ("cannot create --dir: " ^ msg)
      | Ok () ->
        let fleet = Service.Fleet.start ?jobs configs in
        let manifest = Option.value manifest_out ~default:(Filename.concat dir "fleet.json") in
        let manifest_error = ref None in
        let ready () =
          match Service.Fleet.publish ~manifest fleet with
          | Ok up ->
            Printf.printf "fleet: %d of %d shards up, manifest %s\n%!" up shards manifest
          | Error msg ->
            manifest_error := Some msg;
            List.iteri (fun i _ -> Service.Fleet.signal fleet i Sys.sigterm) configs
        in
        let { Service.Fleet.unexpected; retired; stopped } =
          Service.Fleet.supervise ~ready ~restart fleet
        in
        match !manifest_error with
        | Some msg -> log_error_exit2 ~m:"fleet" ("cannot write fleet manifest: " ^ msg)
        | None ->
          Printf.printf "fleet: drained (%d unexpected shard exits, %d retired)\n"
            unexpected retired;
          if retired > 0 then 1 else if stopped || unexpected = 0 || restart then 0 else 1
  in
  Cmd.v (Cmd.info "serve-fleet" ~doc)
    Term.(
      const run $ shards_arg $ dir_arg $ manifest_out_arg $ restart_arg
      $ queue_arg $ cache_arg $ durable_arg $ log_level_arg $ log_json_arg
      $ jobs_arg $ deadline_arg $ max_evals_arg $ retries_arg $ backoff_arg
      $ seed_arg)

(* [metrics_num json field name] is NaN when the series is absent *)
let metrics_num json field name =
  Option.value ~default:Float.nan (Obs.Export.series_field json ~name field)

(* pull one histogram's p99 and the cache counters out of the
   obs.metrics.v1 document for the end-of-run summary line *)
let metrics_digest json =
  let num = metrics_num json in
  Printf.sprintf
    "p99 solve %.4fs (%d solves); cache: %.0f hits, %.0f misses, %.0f warm \
     seeds, %.0f evictions; shed %.0f"
    (num "p99" "service.solve.latency_s")
    (int_of_float
       (Float.max 0. (num "count" "service.solve.latency_s")))
    (num "value" "service.cache.hits")
    (num "value" "service.cache.misses")
    (num "value" "service.cache.warm_seeds")
    (num "value" "service.cache.evictions")
    (num "value" "service.queue.shed")

let loadgen_cmd =
  let requests_arg =
    let doc = "Solve requests to send." in
    Arg.(value & opt int 1000 & info [ "n"; "requests" ] ~docv:"N" ~doc)
  in
  let connections_arg =
    let doc = "Concurrent connections." in
    Arg.(value & opt int 2 & info [ "connections" ] ~docv:"N" ~doc)
  in
  let burst_arg =
    let doc = "Pipelined solve frames per connection per round." in
    Arg.(value & opt int 8 & info [ "burst" ] ~docv:"N" ~doc)
  in
  let chaos_every_arg =
    let doc =
      "Send a chaos-mode toggle every $(docv) requests, cycling through every \
       fault scenario and off (daemon must run with --allow-chaos)."
    in
    Arg.(value & opt (some int) None & info [ "chaos-every" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc = "Client-side timeout per response, in seconds." in
    Arg.(value & opt float 60. & info [ "timeout-s" ] ~docv:"S" ~doc)
  in
  let csv_arg =
    let doc =
      "Write the run report (counts, per-mode chaos toggles, latency \
       distribution) as CSV to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let fleet_arg =
    let doc =
      "Drive a sharded fleet instead of one daemon: route requests by \
       fingerprint over the fleet.v1 manifest $(docv) (written by \
       $(b,serve-fleet)), with retry, failover and per-shard circuit breakers."
    in
    Arg.(value & opt (some file) None & info [ "fleet" ] ~docv:"MANIFEST" ~doc)
  in
  let chaos_net_arg =
    let doc =
      "Inject deterministic client-side network faults (dropped connections, \
       torn mid-frame writes, delayed reads), seeded from --seed; the run \
       must still answer every request via the failover pool."
    in
    Arg.(value & flag & info [ "chaos-net" ] ~doc)
  in
  let doc =
    "Drive randomized solve load (fresh markets, cache-hitting repeats, \
     warm-start neighbours, optional chaos toggles) against a running daemon \
     and verify every request is answered."
  in
  let run socket tcp host requests connections burst seed chaos_every
      deadline_s timeout_s csv fleet chaos_net log_level log_json =
    apply_logging ~level:log_level ~json:log_json;
    let address = address_of ~socket ~tcp ~host in
    let fleet_ring =
      match fleet with
      | None -> Ok None
      | Some path ->
        Result.map Option.some (Service.Shard.load_manifest ~path ())
    in
    match fleet_ring with
    | Error msg -> log_error_exit2 ~m:"loadgen" msg
    | Ok ring ->
      let netfault =
        if chaos_net then
          Some
            (Service.Netfault.create ~drop_conn_p:0.02 ~torn_write_p:0.02
               ~delay_read_p:0.05 ~delay_s:0.005
               ~seed:(Int64.of_int (seed + 7919))
               ())
        else None
      in
      let base = Service.Loadgen.default_config ~address ~requests in
      let cfg =
        {
          base with
          Service.Loadgen.connections;
          burst;
          seed = Int64.of_int seed;
          chaos_every;
          deadline_s;
          timeout_s;
          fleet = ring;
          netfault;
        }
      in
      (match netfault with
      | Some nf ->
        Printf.printf "loadgen: chaos-net on (%s)\n%!"
          (Service.Netfault.describe nf)
      | None -> ());
      (match
         Service.Loadgen.run
           ~on_event:(fun m -> Printf.printf "loadgen: %s\n%!" m)
           cfg
       with
      | Error msg -> log_error_exit2 ~m:"loadgen" msg
      | Ok report ->
        Printf.printf "loadgen: %s\n" (Service.Loadgen.report_to_string report);
        List.iter
          (fun (name, (s : Service.Loadgen.shard_load)) ->
            Printf.printf
              "loadgen: shard %s: %d sent, %d answered (%d solved, %d \
               degraded, %d shed), %.1f req/s\n"
              name s.Service.Loadgen.sent s.Service.Loadgen.answered
              s.Service.Loadgen.solved s.Service.Loadgen.degraded
              s.Service.Loadgen.shed s.Service.Loadgen.req_s)
          report.Service.Loadgen.per_shard;
        (match netfault with
        | Some nf ->
          let s = Service.Netfault.stats nf in
          Printf.printf
            "loadgen: chaos-net injected %d dropped conns, %d torn writes, %d \
             delayed reads\n"
            s.Service.Netfault.dropped s.Service.Netfault.torn
            s.Service.Netfault.delayed
        | None -> ());
        (match csv with
        | Some path ->
          Service.Loadgen.write_csv ~path report;
          Printf.printf "loadgen: report CSV written to %s\n" path
        | None -> ());
        let digest_of addr tag =
          match Service.Loadgen.fetch_metrics ~prefix:"service." addr with
          | Ok json -> Printf.printf "loadgen: %s%s\n" tag (metrics_digest json)
          | Error msg ->
            Printf.printf "loadgen: %sno metrics snapshot (%s)\n" tag msg
        in
        (match ring with
        | None -> digest_of address ""
        | Some ring ->
          List.iter
            (fun (s : Service.Shard.shard) ->
              digest_of s.Service.Shard.address
                (Printf.sprintf "shard %s: " s.Service.Shard.name))
            (Service.Shard.shards ring));
        List.iter
          (fun e -> Printf.printf "loadgen: transport error: %s\n" e)
          report.Service.Loadgen.errors;
        if Service.Loadgen.report_ok report then begin
          Printf.printf "loadgen: OK — every request solved, degraded or shed\n";
          0
        end
        else begin
          Printf.printf "loadgen: FAILED\n";
          1
        end)
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const run $ socket_arg $ tcp_arg $ host_arg $ requests_arg
      $ connections_arg $ burst_arg $ seed_arg $ chaos_every_arg $ deadline_arg
      $ timeout_arg $ csv_arg $ fleet_arg $ chaos_net_arg $ log_level_arg
      $ log_json_arg)

(* ------------------------------------------------------------------ *)
(* top: live daemon dashboard *)

let top_cmd =
  let interval_arg =
    let doc = "Seconds between polls." in
    Arg.(value & opt float 1.0 & info [ "interval-s" ] ~docv:"S" ~doc)
  in
  let iterations_arg =
    let doc = "Stop after $(docv) polls; 0 means run until interrupted." in
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let plain_arg =
    let doc = "Append frames instead of redrawing in place (no ANSI escapes)." in
    Arg.(value & flag & info [ "plain" ] ~doc)
  in
  let doc =
    "Live terminal dashboard for a running solve daemon: request rate, solve \
     latency quantiles, cache hit ratio, queue depth, shed/degraded counts \
     and journal lag, polled over the metrics frame."
  in
  let fmt_rate v = if Float.is_nan v then "-" else Printf.sprintf "%.1f" v in
  let fmt_ms v = if Float.is_nan v then "-" else Printf.sprintf "%.2f" (1000. *. v) in
  let fmt_count v = if Float.is_nan v then "-" else Printf.sprintf "%.0f" v in
  let run socket tcp host interval iterations plain log_level log_json =
    apply_logging ~level:log_level ~json:log_json;
    let address = address_of ~socket ~tcp ~host in
    let interval = Float.max 0.05 interval in
    let sampler = Obs.Series.create ~capacity:600 () in
    let prev_total = ref None in
    let render json =
      let num = metrics_num json in
      let now = Obs.Clock.now () in
      let solved = num "value" "service.requests.solved" in
      let degraded = num "value" "service.requests.degraded" in
      let shed = num "value" "service.requests.shed" in
      let answered v = if Float.is_nan v then 0. else v in
      let total = answered solved +. answered degraded +. answered shed in
      (match !prev_total with
      | Some (pt, ptotal) when now > pt ->
        Obs.Series.append sampler ~name:"req_s" ~t_s:now
          (Float.max 0. ((total -. ptotal) /. (now -. pt)))
      | _ -> ());
      prev_total := Some (now, total);
      let inst = Obs.Series.window ~last_s:(2. *. interval) sampler "req_s" in
      let avg = Obs.Series.window ~last_s:60. sampler "req_s" in
      let hits = num "value" "service.cache.hits" in
      let misses = num "value" "service.cache.misses" in
      let hit_ratio =
        if Float.is_nan hits || Float.is_nan misses || hits +. misses <= 0. then
          Float.nan
        else hits /. (hits +. misses)
      in
      let t = Report.Table.make ~columns:[ "metric"; "value" ] in
      let add k v = Report.Table.add_row t [ k; v ] in
      add "req/s"
        (match inst with Some w -> fmt_rate w.Obs.Series.last | None -> "-");
      add "req/s (60s mean)"
        (match avg with Some w -> fmt_rate w.Obs.Series.mean | None -> "-");
      add "solved" (fmt_count solved);
      add "degraded" (fmt_count degraded);
      add "shed" (fmt_count shed);
      add "rejected" (fmt_count (num "value" "service.requests.rejected"));
      add "solve p50 (ms)" (fmt_ms (num "p50" "service.solve.latency_s"));
      add "solve p99 (ms)" (fmt_ms (num "p99" "service.solve.latency_s"));
      add "cache hit ratio"
        (if Float.is_nan hit_ratio then "-"
         else Printf.sprintf "%.1f%%" (100. *. hit_ratio));
      add "cache size" (fmt_count (num "value" "service.cache.size"));
      add "warm seeds" (fmt_count (num "value" "service.cache.warm_seeds"));
      add "queue depth" (fmt_count (num "value" "service.queue.depth"));
      add "connections" (fmt_count (num "value" "service.connections"));
      add "journal pending" (fmt_count (num "value" "service.journal.pending"));
      add "journal bytes" (fmt_count (num "value" "service.journal.size_bytes"));
      add "snapshot age (s)"
        (let v = num "value" "service.cache.snapshot_age_s" in
         if Float.is_nan v then "-" else Printf.sprintf "%.0f" v);
      if not plain then print_string "\027[2J\027[H";
      Printf.printf "subsidization top — %s (every %.1fs)\n\n%s\n"
        (Service.Server.address_to_string address)
        interval
        (Report.Table.to_string t);
      let pts = Obs.Series.points sampler "req_s" in
      if List.length pts >= 2 then begin
        let xs = Array.of_list (List.map fst pts) in
        let t0 = xs.(0) in
        let xs = Array.map (fun x -> x -. t0) xs in
        let ys = Array.of_list (List.map snd pts) in
        let plot =
          Report.Ascii_plot.render
            ~config:
              {
                Report.Ascii_plot.default with
                Report.Ascii_plot.width = 56;
                height = 8;
                y_min = Some 0.;
              }
            [ Report.Series.make ~name:"req/s" ~xs ~ys ]
        in
        Printf.printf "\n%s\n" plot
      end;
      flush stdout
    in
    let rec poll i =
      match Service.Loadgen.fetch_metrics ~prefix:"service." address with
      | Error msg -> log_error_exit2 ~m:"top" ("metrics poll failed: " ^ msg)
      | Ok json ->
        render json;
        if iterations > 0 && i + 1 >= iterations then 0
        else begin
          Unix.sleepf interval;
          poll (i + 1)
        end
    in
    poll 0
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      const run $ socket_arg $ tcp_arg $ host_arg $ interval_arg
      $ iterations_arg $ plain_arg $ log_level_arg $ log_json_arg)

let main_cmd =
  let doc =
    "Reproduction of 'Subsidization Competition: Vitalizing the Neutral Internet' (CoNEXT 2014)"
  in
  let info = Cmd.info "subsidization" ~version:"1.0.0" ~doc in
  let experiment_cmds = List.map experiment_cmd Experiments.Registry.all in
  Cmd.group info
    (experiment_cmds
    @ [
        all_cmd;
        chaos_cmd;
        nash_cmd;
        sweep_cmd;
        serve_cmd;
        serve_fleet_cmd;
        loadgen_cmd;
        top_cmd;
      ])

let () = exit (Cmd.eval' main_cmd)
