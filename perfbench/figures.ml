(* figures-serial / figures-parallel: the whole Experiments.Registry
   regenerated, each repetition in a fresh process so the memoized
   Eq_sweep and Subsidy_game's warm-start cache start cold every time
   (fig7 pays for the sweep fig8-11 slice).

   The parent spawns this executable with [--regen]; the child runs
   every experiment through Experiments.Common.run, checks the outcomes
   against the committed reference tables after its clock stops, and
   writes one JSON record to [--out]. *)

let reference_dir = "perfbench/reference"

(* Experiments whose wall time is reported on its own. *)
let timed_ids = [ "capacity"; "duopoly"; "ablation"; "dynamics"; "fig7"; "robustness"; "verify" ]

(* {2 Child} *)

(* Common.run zeroes these at its start, so after it returns they hold
   that experiment's own counts. *)
let counters () =
  let r = Numerics.Robust.stats () in
  let c = Numerics.Continuation.stats () in
  [
    ("root_calls", float_of_int r.Numerics.Robust.root_calls);
    ("evals", Obs.Metrics.sum_histograms "solver.evaluations");
    ("fallbacks", float_of_int r.Numerics.Robust.fallbacks);
    ("failures", float_of_int r.Numerics.Robust.failures);
    ("cont_steps", c.Numerics.Continuation.steps);
    ("cont_accepts", c.Numerics.Continuation.predictor_accepts);
    ("corrector_iters", c.Numerics.Continuation.corrector_iterations);
    ("cont_fallbacks", c.Numerics.Continuation.fallbacks);
    ("ad_passes", (Numerics.Ad.stats ()).Numerics.Ad.passes);
    ("fd_estimates", (Numerics.Diff.stats ()).Numerics.Diff.estimates);
  ]

let child ~jobs ~trace ~setup_only ~out =
  Parallel.Runtime.set_jobs jobs;
  let tols = Reference.tolerances ~dir:reference_dir in
  if trace then begin
    Obs.Trace.clear ();
    Obs.Trace.set_enabled true
  end;
  let self = Hashtbl.create 16 in
  let dropped = ref 0 and excluded = ref [] in
  let cpu0 = Unix.times () in
  let ready = Obs.Clock.now () in
  let runs =
    List.map
      (fun (e : Experiments.Common.t) ->
        let t0 = Obs.Clock.now () in
        let outcome = Experiments.Common.run e in
        let dt = Obs.Clock.elapsed ~since:t0 in
        let counters = counters () in
        if trace then begin
          (* once the buffer is full, finishing spans are dropped while
             their earlier children stay: an experiment that dropped
             any is left out of the self times rather than summed in
             part *)
          (match Obs.Trace.dropped () with
          | 0 -> Measure.add_into self (Measure.self_times (Obs.Trace.spans ()))
          | n ->
            dropped := !dropped + n;
            excluded := e.Experiments.Common.id :: !excluded);
          Obs.Trace.clear ()
        end;
        (outcome, dt, counters))
      (if setup_only then [] else Experiments.Registry.all)
  in
  let regen_s = Obs.Clock.elapsed ~since:ready in
  let cpu1 = Unix.times () in
  let rss = Measure.peak_rss_mb 0 in
  let gc = Gc.quick_stat () in
  let pool = Parallel.Runtime.stats () in
  Obs.Trace.set_enabled false;
  (* the clock has stopped: check every outcome *)
  let failed =
    List.filter_map
      (fun (o, _, _) ->
        match Reference.failures ~dir:reference_dir ~tols o with
        | [] -> None
        | msgs -> Some (Obs.Json.Str (String.concat "; " msgs)))
      runs
  in
  let totals =
    List.fold_left
      (fun acc (_, _, c) -> List.map2 (fun (k, a) (_, b) -> (k, a +. b)) acc c)
      (List.map (fun (k, _) -> (k, 0.)) (counters ()))
      runs
  in
  let num x = Obs.Json.Num x in
  let tasks =
    match pool with
    | Some p -> Array.to_list (Array.map (fun n -> num (float_of_int n)) p.Parallel.Pool.tasks_run)
    | None -> []
  in
  let cpu =
    cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_utime -. cpu0.Unix.tms_stime
  in
  let record =
    Obs.Json.Obj
      ([
        ("ready", num ready);
        ("regen_s", num regen_s);
        ("experiments", num (float_of_int (List.length runs)));
        ("failed", Obs.Json.Arr failed);
        ( "experiment_s",
          Obs.Json.Obj (List.map (fun ((o : Experiments.Common.outcome), dt, _) -> (o.id, num dt)) runs) );
        ("peak_rss_mb", num rss);
        ("cpu_s", num cpu);
        ("gc_minor", num (float_of_int gc.Gc.minor_collections));
        ("gc_major", num (float_of_int gc.Gc.major_collections));
        ("gc_promoted_mw", num (gc.Gc.promoted_words /. 1e6));
        ( "pool_batches",
          num (match pool with Some p -> float_of_int p.Parallel.Pool.batches | None -> 0.) );
        ("tasks_run", Obs.Json.Arr tasks);
        ("trace_dropped", num (float_of_int !dropped));
        ("self_excluded", Obs.Json.Arr (List.rev_map (fun id -> Obs.Json.Str id) !excluded));
        ("self_s", Obs.Json.Obj (Hashtbl.fold (fun k v acc -> (k, num v) :: acc) self []));
      ]
      @ List.map (fun (k, v) -> (k, num v)) totals)
  in
  Report.Fsio.write_atomic_exn ~path:out (fun oc ->
      output_string oc (Obs.Json.to_string record))

(* {2 Parent} *)

type rep = { setup_s : float; json : Obs.Json.t }

let field name json =
  match Option.bind (Obs.Json.member name json) Obs.Json.to_float with
  | Some x -> x
  | None -> Float.nan

(* [setup_only]: the child stops at its ready stamp, before the first
   experiment. *)
let spawn_rep ?(setup_only = false) ~exe ~jobs ~trace ~dir ~n () =
  let out = Filename.concat dir (Printf.sprintf "%s%d.json" (if setup_only then "setup" else "rep") n) in
  let args =
    Array.of_list
      ([ exe; "--regen"; "--jobs"; string_of_int jobs; "--trace"; (if trace then "1" else "0"); "--out"; out ]
      @ if setup_only then [ "--setup-only" ] else [])
  in
  let spawned = Obs.Clock.now () in
  (* the child writes its record to [out] and nothing to stdout *)
  let pid = Unix.create_process exe args Unix.stdin Unix.stdout Unix.stderr in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 ->
    let json = Obs.Json.of_string (In_channel.with_open_bin out In_channel.input_all) in
    { setup_s = field "ready" json -. spawned; json }
  | _ -> failwith (Printf.sprintf "regeneration child (jobs %d) did not exit cleanly" jobs)

let failures_of rep =
  match Option.bind (Obs.Json.member "failed" rep.json) Obs.Json.to_list with
  | Some l -> List.filter_map (function Obs.Json.Str s -> Some s | _ -> None) l
  | None -> [ "missing failure list" ]

let report_failures reps =
  List.iter (fun r -> List.iter (fun m -> Printf.printf "FAIL %s\n" m) (failures_of r)) reps

let tally reps =
  let attempted =
    List.fold_left (fun acc r -> acc + int_of_float (field "experiments" r.json)) 0 reps
  in
  let failed = List.fold_left (fun acc r -> acc + List.length (failures_of r)) 0 reps in
  (attempted, failed)

let properties ~jobs reps =
  Printf.printf "workload properties: jobs %d, host nproc %d, OCaml %s, %d regenerations\n" jobs
    (Measure.nproc ()) Sys.ocaml_version (List.length reps)

(* End-to-end: repetitions until the run's time is spent (at least 3),
   each after three rounds of set-up samples (children that stop at
   their ready stamp, read by Measure.setup_s), so that the set-up
   samples spread over the run as the work does. One regeneration is
   the figure user's unit of work; its wall and CPU time are means over
   the repetitions, because the host switches between a fast and a slow
   speed for seconds at a time and a median of a few repetitions jumps
   between the two. Memory is a median. *)
let end_to_end ~exe ~jobs ~seconds =
  Measure.with_dir "figures" @@ fun dir ->
  let start = Obs.Clock.now () in
  let rounds = ref [] in
  let setup_round () =
    let first = Measure.starts_per_round * List.length !rounds in
    rounds :=
      Array.init Measure.starts_per_round (fun i ->
          (spawn_rep ~setup_only:true ~exe ~jobs ~trace:false ~dir ~n:(first + i) ()).setup_s)
      :: !rounds
  in
  let rec loop n acc =
    let elapsed = Obs.Clock.elapsed ~since:start in
    let last = match acc with r :: _ -> field "regen_s" r.json | [] -> 0. in
    if n >= 3 && elapsed +. last > seconds then List.rev acc
    else begin
      for _ = 1 to 3 do
        setup_round ()
      done;
      loop (n + 1) (spawn_rep ~exe ~jobs ~trace:false ~dir ~n () :: acc)
    end
  in
  let reps = loop 0 [] in
  properties ~jobs reps;
  report_failures reps;
  let arr f = Array.of_list (List.map f reps) in
  let regen = arr (fun r -> field "regen_s" r.json) in
  let attempted, failed = tally reps in
  let cpu = arr (fun r -> field "cpu_s" r.json) in
  let setups = List.rev !rounds in
  Printf.printf "setup_s samples (%d rounds): %s\n" (List.length setups)
    (Measure.samples (Array.concat setups));
  Printf.printf "regen_s: mean %.4f over %d regenerations; samples %s; cpu_s %s\n"
    (Numerics.Stats.mean regen) (Array.length regen) (Measure.samples regen) (Measure.samples cpu);
  let m = Measure.metric in
  ( attempted,
    failed,
    [
      m "setup_s" "s" (Measure.setup_s setups);
      m "work_ms" "ms" (1e3 *. Numerics.Stats.mean regen);
      m "cpu_ms" "ms" (1e3 *. Numerics.Stats.mean cpu);
      m "peak_rss_mb" "MiB" (Measure.median (arr (fun r -> field "peak_rss_mb" r.json)));
    ] )

(* Per layer: one untraced regeneration (experiment wall times,
   counters, pool and GC stats, the base of the tracing overhead) and
   one traced one (span self times). *)
let per_layer ~exe ~jobs =
  Measure.with_dir "figures" @@ fun dir ->
  let plain = spawn_rep ~exe ~jobs ~trace:false ~dir ~n:0 () in
  let traced = spawn_rep ~exe ~jobs ~trace:true ~dir ~n:1 () in
  properties ~jobs [ plain; traced ];
  report_failures [ plain; traced ];
  let attempted, failed = tally [ plain; traced ] in
  (* counters are deterministic, so they come from the untraced child;
     the traced one adds only span self times *)
  let f name = field name plain.json in
  let exp_s id =
    match Option.bind (Obs.Json.member "experiment_s" plain.json) (Obs.Json.member id) with
    | Some (Obs.Json.Num x) -> x
    | _ -> Float.nan
  in
  let self name =
    match Option.bind (Obs.Json.member "self_s" traced.json) (Obs.Json.member name) with
    | Some (Obs.Json.Num x) -> x
    | _ -> 0.
  in
  let tasks =
    match Option.bind (Obs.Json.member "tasks_run" plain.json) Obs.Json.to_list with
    | Some l -> Array.of_list (List.filter_map Obs.Json.to_float l)
    | None -> [||]
  in
  let task d = if d < Array.length tasks then tasks.(d) else 0. in
  let excluded =
    match Option.bind (Obs.Json.member "self_excluded" traced.json) Obs.Json.to_list with
    | Some l -> List.filter_map (function Obs.Json.Str id -> Some id | _ -> None) l
    | None -> []
  in
  Printf.printf "span self times cover %d of %d experiments; left out (spans dropped): %s\n"
    (int_of_float (field "experiments" traced.json) - List.length excluded)
    (int_of_float (field "experiments" traced.json))
    (if excluded = [] then "none" else String.concat ", " excluded);
  ( attempted,
    failed,
    List.map (fun id -> (Printf.sprintf "experiments.%s.s" id, exp_s id)) timed_ids
    @ [
        ("numerics.robust.root_calls", f "root_calls");
        ("numerics.robust.evals", f "evals");
        ("numerics.robust.fallbacks", f "fallbacks");
        ("numerics.robust.failures", f "failures");
        ("numerics.continuation.steps", f "cont_steps");
        ("numerics.continuation.accepts", f "cont_accepts");
        ("numerics.continuation.accept_ratio", Measure.ratio (f "cont_accepts") (f "cont_steps"));
        ("numerics.continuation.corrector_iters", f "corrector_iters");
        ("numerics.continuation.fallbacks", f "cont_fallbacks");
        ("numerics.ad.passes", f "ad_passes");
        ("numerics.diff.estimates", f "fd_estimates");
        ("core.system.self_s", self "system.equilibrium_phi");
        ("core.nash.self_s", self "nash.solve");
        ("game.best_response.self_s", self "best_response.solve");
        ("trace.dropped", field "trace_dropped" traced.json);
        ( "trace.self_experiments",
          field "experiments" traced.json -. float_of_int (List.length excluded) );
        ("trace.overhead_ratio", field "regen_s" traced.json /. f "regen_s");
        ("parallel.pool.batches", f "pool_batches");
        ("parallel.pool.tasks_d0", task 0);
        ("parallel.pool.tasks_d1", task 1);
        ( "parallel.pool.task_imbalance",
          if tasks = [||] then 0.
          else Measure.ratio (Numerics.Stats.maximum tasks) (Numerics.Stats.mean tasks) );
        ("parallel.cpu_per_wall", f "cpu_s" /. f "regen_s");
        ("process.gc.minor", f "gc_minor");
        ("process.gc.major", f "gc_major");
        ("process.gc.promoted_mw", f "gc_promoted_mw");
      ] )
