(* Domain-pool suite: chunking and result ordering, serial edge cases,
   exception transport, chunk-local warm-start state, cross-domain
   propagation of watchdog probes and chaos faults, and the determinism
   contract at the experiment level — `--jobs 1` and `--jobs 4` must
   produce byte-identical CSVs and identical solver counts for the grid
   experiments. *)

open Test_helpers

let with_pool ?domains f =
  let pool = Parallel.Pool.create ?domains () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () -> f pool)

(* -- ranges --------------------------------------------------------- *)

let test_ranges () =
  Alcotest.(check (list (pair int int)))
    "uneven tail"
    [ (0, 3); (3, 6); (6, 9); (9, 10) ]
    (Array.to_list (Parallel.Pool.ranges ~n:10 ~chunk:3));
  Alcotest.(check (list (pair int int)))
    "chunk wider than n" [ (0, 4) ]
    (Array.to_list (Parallel.Pool.ranges ~n:4 ~chunk:100));
  Alcotest.(check (list (pair int int)))
    "empty input" []
    (Array.to_list (Parallel.Pool.ranges ~n:0 ~chunk:5));
  check_raises_invalid "chunk 0 rejected" (fun () ->
      Parallel.Pool.ranges ~n:5 ~chunk:0);
  check_raises_invalid "negative n rejected" (fun () ->
      Parallel.Pool.ranges ~n:(-1) ~chunk:5)

(* -- construction edge cases ---------------------------------------- *)

let test_create_validation () =
  check_raises_invalid "0 domains rejected" (fun () ->
      Parallel.Pool.create ~domains:0 ());
  check_raises_invalid "negative domains rejected" (fun () ->
      Parallel.Pool.create ~domains:(-3) ());
  check_raises_invalid "absurd domain count rejected" (fun () ->
      Parallel.Pool.create ~domains:129 ());
  with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "1-domain pool" 1 (Parallel.Pool.size pool))

let test_shutdown_idempotent () =
  let pool = Parallel.Pool.create ~domains:2 () in
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool;
  check_raises_invalid "submitting after shutdown rejected" (fun () ->
      Parallel.Pool.map pool Fun.id [| 1; 2; 3 |])

(* -- map: ordering -------------------------------------------------- *)

let test_map_ordering () =
  with_pool ~domains:4 (fun pool ->
      let xs = Array.init 100 Fun.id in
      let got = Parallel.Pool.map ~chunk:3 pool (fun x -> x * x) xs in
      Alcotest.(check (array int))
        "results in index order"
        (Array.map (fun x -> x * x) xs)
        got;
      Alcotest.(check (array int))
        "empty map" [||]
        (Parallel.Pool.map pool (fun x -> x * x) [||]))

let test_serial_pool_order () =
  (* a 1-domain pool degenerates to serial execution in submission order *)
  with_pool ~domains:1 (fun pool ->
      let visited = ref [] in
      let got =
        Parallel.Pool.map ~chunk:1 pool
          (fun i ->
            visited := i :: !visited;
            i)
          (Array.init 10 Fun.id)
      in
      Alcotest.(check (list int))
        "submission order" (List.init 10 Fun.id)
        (List.rev !visited);
      Alcotest.(check (array int)) "identity" (Array.init 10 Fun.id) got)

(* -- chunk-local state ---------------------------------------------- *)

let step s x = (s +. x, s +. x)

let test_fold_map () =
  let xs = Array.init 7 float_of_int in
  let got = Parallel.Pool.fold_map ~init:10. ~step xs in
  let s = ref 10. in
  let want =
    Array.map
      (fun x ->
        s := !s +. x;
        !s)
      xs
  in
  Alcotest.(check (array (float 1e-12))) "running sums" want got;
  Alcotest.(check (array (float 1e-12)))
    "empty fold_map" [||]
    (Parallel.Pool.fold_map ~init:0. ~step [||])

let test_map_chunked_state () =
  let xs = Array.init 23 float_of_int in
  let init lo = float_of_int (lo * 100) in
  (* reference: the same chunk decomposition folded serially *)
  let want =
    Array.concat
      (Parallel.Pool.ranges ~n:(Array.length xs) ~chunk:5
      |> Array.to_list
      |> List.map (fun (lo, hi) ->
             Parallel.Pool.fold_map ~init:(init lo) ~step
               (Array.sub xs lo (hi - lo))))
  in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let got = Parallel.Pool.map_chunked pool ~chunk:5 ~init ~step xs in
          Alcotest.(check (array (float 1e-12)))
            (Printf.sprintf "chunk-local state at %d domains" domains)
            want got))
    [ 1; 2; 4 ]

(* -- exception transport -------------------------------------------- *)

exception Boom of int

let test_exception_propagation () =
  with_pool ~domains:4 (fun pool ->
      (match
         Parallel.Pool.map ~chunk:1 pool
           (fun i -> if i >= 3 then raise (Boom i) else i)
           (Array.init 10 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> check_true "a failing index surfaced" (i >= 3));
      (* a single raising task is deterministic: its exception arrives *)
      (match
         Parallel.Pool.map ~chunk:2 pool
           (fun i -> if i = 5 then raise (Boom i) else i)
           (Array.init 8 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom 5"
      | exception Boom 5 -> ()
      | exception Boom i -> Alcotest.failf "wrong index %d" i);
      (* the pool survives failed batches *)
      Alcotest.(check (array int))
        "pool usable after a failure"
        (Array.map (fun x -> x * 2) (Array.init 7 Fun.id))
        (Parallel.Pool.map ~chunk:2 pool (fun x -> x * 2) (Array.init 7 Fun.id)))

(* -- stats ----------------------------------------------------------- *)

let test_stats () =
  with_pool ~domains:3 (fun pool ->
      ignore (Parallel.Pool.map ~chunk:1 pool Fun.id (Array.init 12 Fun.id));
      let s = Parallel.Pool.stats pool in
      Alcotest.(check int) "domains" 3 s.Parallel.Pool.domains;
      check_true "a batch was recorded" (s.Parallel.Pool.batches >= 1);
      Alcotest.(check int)
        "every task accounted for" 12
        (Array.fold_left ( + ) 0 s.Parallel.Pool.tasks_run))

(* -- rng splitting --------------------------------------------------- *)

let test_split_n_streams () =
  let draws rng = Array.init 5 (fun _ -> Numerics.Rng.float rng) in
  let a = Numerics.Rng.split_n (Numerics.Rng.create 42L) 3 in
  let b = Numerics.Rng.split_n (Numerics.Rng.create 42L) 3 in
  (* drain b's streams in reverse order: children must be independent,
     so per-stream draws cannot depend on evaluation order *)
  let vb = Array.make 3 [||] in
  for i = 2 downto 0 do
    vb.(i) <- draws b.(i)
  done;
  let va = Array.map draws a in
  for i = 0 to 2 do
    Alcotest.(check (array (float 0.)))
      (Printf.sprintf "stream %d order-independent" i)
      va.(i) vb.(i)
  done;
  Alcotest.(check int) "empty split" 0
    (Array.length (Numerics.Rng.split_n (Numerics.Rng.create 1L) 0));
  check_raises_invalid "negative count rejected" (fun () ->
      Numerics.Rng.split_n (Numerics.Rng.create 1L) (-1))

(* -- context propagation: watchdog and faults ----------------------- *)

(* burns guarded objective evaluations inside a pool worker *)
let solve_once () =
  match
    Numerics.Robust.root ~ctx:"test-parallel" (fun x -> (x *. x) -. 2.) ~lo:0. ~hi:2.
  with
  | Ok s -> s.Numerics.Robust.result.Numerics.Rootfind.root
  | Error e ->
    Alcotest.failf "unexpected solver error: %s" (Numerics.Robust.error_message e)

let test_watchdog_crosses_pool () =
  (* the guard's probe is captured at submission and re-installed in
     every worker: a budget set on the main domain trips on work done
     by the spawned ones, and the typed exception unwinds to the
     submission site *)
  with_pool ~domains:4 (fun pool ->
      let lims = Runner.Watchdog.limits ~max_evals:5 () in
      match
        Runner.Watchdog.guard lims (fun () ->
            Parallel.Pool.map ~chunk:1 pool
              (fun _ -> solve_once ())
              (Array.init 16 Fun.id))
      with
      | _ -> Alcotest.fail "expected Eval_budget_exceeded"
      | exception Runner.Watchdog.Eval_budget_exceeded { evaluations; limit } ->
        Alcotest.(check int) "limit recorded" 5 limit;
        check_true "tripped at the limit" (evaluations >= limit));
  (* after the guard, pooled work runs unbudgeted again *)
  with_pool ~domains:2 (fun pool ->
      let roots =
        Parallel.Pool.map ~chunk:1 pool (fun _ -> solve_once ()) (Array.init 4 Fun.id)
      in
      Array.iter (fun r -> check_close ~tol:1e-9 "sqrt 2" (sqrt 2.) r) roots)

let test_fault_crosses_pool () =
  (* a process-global fault installed on the main domain is snapshot
     into the workers; its shared atomic counters make every worker's
     evaluations visible back on the main domain *)
  Fun.protect ~finally:(fun () -> Numerics.Fault.set_global None) @@ fun () ->
  Numerics.Fault.set_global
    (Some (Numerics.Fault.Spike { at = -10.; width = 0.01; height = 1. }));
  with_pool ~domains:4 (fun pool ->
      ignore
        (Parallel.Pool.map ~chunk:1 pool (fun _ -> solve_once ()) (Array.init 8 Fun.id)));
  check_true "worker evaluations counted process-wide"
    (Numerics.Fault.global_evaluations () > 0)

(* -- experiment-level determinism ----------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let csv_bytes ~dir id =
  let sub = Filename.concat dir id in
  Sys.readdir sub |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat sub f)))

(* the run's solver work, summed over every domain that did it *)
let solver_counts () =
  [
    ("solver.root.calls", Obs.Metrics.sum_counters "solver.root.calls");
    ("solver.evaluations sum", Obs.Metrics.sum_histograms "solver.evaluations");
    ("continuation.steps", Obs.Metrics.sum_counters "continuation.steps");
    ("numerics.deriv.ad", Obs.Metrics.sum_counters "numerics.deriv.ad");
  ]

let run_and_save ~jobs ~dir id =
  Parallel.Runtime.set_jobs jobs;
  let outcome = Experiments.Common.run (Experiments.Registry.find_exn id) in
  Experiments.Common.save outcome ~dir;
  solver_counts ()

let test_jobs_determinism () =
  (* the acceptance bar of the determinism contract: `--jobs 1` and
     `--jobs 4` regenerate byte-identical CSVs (on a single-core host
     the 4 domains still interleave, so this exercises real scheduling
     nondeterminism) from identical solver work: a metric update lost
     between domains would show in the counts *)
  let d1 = Filename.temp_dir "subs-jobs1-" "" in
  let d4 = Filename.temp_dir "subs-jobs4-" "" in
  List.iter
    (fun id ->
      let counts1 = run_and_save ~jobs:1 ~dir:d1 id in
      let counts4 = run_and_save ~jobs:4 ~dir:d4 id in
      let a = csv_bytes ~dir:d1 id and b = csv_bytes ~dir:d4 id in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "%s CSVs byte-identical at jobs 1 and 4" id)
        a b;
      check_true (Printf.sprintf "%s produced CSVs" id) (a <> []);
      Alcotest.(check (list (pair string (float 0.))))
        (Printf.sprintf "%s solver counts identical at jobs 1 and 4" id)
        counts1 counts4;
      check_true
        (Printf.sprintf "%s counted root calls" id)
        (List.assoc "solver.root.calls" counts1 > 0.))
    [ "capacity"; "duopoly" ]

let test_robustness_jobs_determinism () =
  (* the Monte-Carlo sweep draws from per-sample split generators, so
     its tables cannot depend on which domain evaluates which sample *)
  let tables_at jobs =
    Parallel.Runtime.set_jobs jobs;
    let outcome, _ = Experiments.Robustness_exp.run_samples ~samples:12 () in
    List.map
      (fun (name, t) -> (name, Report.Table.to_string t))
      outcome.Experiments.Common.tables
  in
  Alcotest.(check (list (pair string string)))
    "robustness tables identical at jobs 1 and 4" (tables_at 1) (tables_at 4)

(* -- chaos x pool ---------------------------------------------------- *)

let test_chaos_pair_with_pool () =
  (* one (fault scenario, pooled experiment) pair under the chaos
     harness at jobs 2: the fault must reach the workers, the verdict
     must be contained, and the manifest entry must round-trip *)
  Parallel.Runtime.set_jobs 2;
  let scenario =
    List.find
      (fun s -> String.equal s.Runner.Chaos.name "nan-region")
      Runner.Chaos.default_scenarios
  in
  let experiment = Experiments.Registry.find_exn "robustness" in
  let report =
    Runner.Chaos.run
      ~limits:(Runner.Watchdog.limits ~deadline_s:120. ())
      ~scenarios:[ scenario ] ~experiments:[ experiment ] ()
  in
  check_true "pair contained" report.Runner.Chaos.ok;
  match report.Runner.Chaos.verdicts with
  | [ v ] ->
    check_true "typed manifest entry round-trips" v.Runner.Chaos.contained;
    check_true "fault observed pooled evaluations" (v.Runner.Chaos.injected_evals > 0);
    Alcotest.(check string)
      "manifest id is scenario:experiment" "nan-region:robustness"
      v.Runner.Chaos.entry.Runner.Manifest.id
  | vs -> Alcotest.failf "expected exactly one verdict, got %d" (List.length vs)

let () =
  Alcotest.run "parallel"
    [
      ( "pool-basics",
        [
          quick "ranges cover in order" test_ranges;
          quick "creation bounds enforced" test_create_validation;
          quick "shutdown is idempotent and final" test_shutdown_idempotent;
          quick "map preserves index order" test_map_ordering;
          quick "1-domain pool is serial" test_serial_pool_order;
          quick "stats account for every task" test_stats;
        ] );
      ( "chunk-local-state",
        [
          quick "fold_map is the serial scan" test_fold_map;
          quick "map_chunked restarts state per chunk" test_map_chunked_state;
        ] );
      ( "failure-transport",
        [ quick "exceptions reach the submitter" test_exception_propagation ] );
      ( "context-propagation",
        [
          quick "watchdog budget crosses domains" test_watchdog_crosses_pool;
          quick "global faults cross domains" test_fault_crosses_pool;
        ] );
      ("rng", [ quick "split_n streams are order-independent" test_split_n_streams ]);
      ( "determinism",
        [
          quick "capacity+duopoly CSVs identical at jobs 1 and 4"
            test_jobs_determinism;
          quick "robustness identical at jobs 1 and 4"
            test_robustness_jobs_determinism;
        ] );
      ( "chaos",
        [ quick "fault x pooled experiment is contained" test_chaos_pair_with_pool ] );
    ]
