type retry = {
  max_attempts : int;
  backoff_s : float;
  multiplier : float;
  jitter : float;
}

let no_retry = { max_attempts = 1; backoff_s = 0.5; multiplier = 2.; jitter = 0. }

let retry ?(max_attempts = 1) ?(backoff_s = 0.5) ?(multiplier = 2.) ?(jitter = 0.) () =
  if max_attempts < 1 then
    invalid_arg
      (Printf.sprintf "Supervisor.retry: max_attempts must be >= 1, got %d" max_attempts);
  if (not (Float.is_finite backoff_s)) || backoff_s < 0. then
    invalid_arg
      (Printf.sprintf "Supervisor.retry: backoff_s must be non-negative, got %g" backoff_s);
  if (not (Float.is_finite multiplier)) || multiplier < 1. then
    invalid_arg
      (Printf.sprintf "Supervisor.retry: multiplier must be >= 1, got %g" multiplier);
  if (not (Float.is_finite jitter)) || jitter < 0. || jitter > 1. then
    invalid_arg
      (Printf.sprintf "Supervisor.retry: jitter must be in [0, 1], got %g" jitter);
  { max_attempts; backoff_s; multiplier; jitter }

(* the sleep before the retry that follows failed attempt [attempt]
   (1-based): exponential base, then a symmetric multiplicative jitter
   drawn from the caller's explicit Rng stream so concurrent retriers
   de-synchronize while a fixed seed still replays the exact delays *)
let backoff_delay ?rng retry ~attempt =
  if attempt < 1 then
    invalid_arg
      (Printf.sprintf "Supervisor.backoff_delay: attempt must be >= 1, got %d" attempt);
  let base =
    retry.backoff_s *. (retry.multiplier ** float_of_int (attempt - 1))
  in
  match rng with
  | Some rng when retry.jitter > 0. ->
    let u = Numerics.Rng.float rng in
    base *. (1. +. (retry.jitter *. ((2. *. u) -. 1.)))
  | _ -> base

let retryable = function
  | Numerics.Robust.Solver_error _ | Numerics.Rootfind.No_bracket _
  | Numerics.Rootfind.No_convergence _ ->
    true
  | _ -> false

type result_ = { entry : Manifest.entry; outcome : Experiments.Common.outcome option }

type event =
  | Started of { id : string; attempt : int }
  | Retrying of { id : string; next_attempt : int; backoff_s : float; reason : string }
  | Skipped of { id : string }
  | Finished of result_

type summary = { manifest : Manifest.t; ran : int; skipped : int; failed : int }

(* one watchdog-guarded attempt; the experiment's exception (if any) is
   captured together with its backtrace before anything else can
   truncate the trace *)
type attempt_outcome =
  | Ran of Experiments.Common.outcome
  | Crashed of { exn : exn; backtrace : string }

let attempt_once limits (e : Experiments.Common.t) =
  match Watchdog.guard limits (fun () -> Experiments.Common.run e) with
  | outcome -> Ran outcome
  | exception ((Sys.Break | Stack_overflow | Out_of_memory) as fatal) -> raise fatal
  | exception exn ->
    Crashed { exn; backtrace = Printexc.get_backtrace () }

let entry_of_completed (e : Experiments.Common.t) ~attempts ~duration_s outcome =
  let checks = outcome.Experiments.Common.shape_checks in
  let failed_checks =
    List.filter_map
      (fun c ->
        if c.Subsidization.Theorems.passed then None
        else Some c.Subsidization.Theorems.name)
      checks
  in
  let shape_total = List.length checks in
  let shape_passed = shape_total - List.length failed_checks in
  {
    Manifest.id = e.Experiments.Common.id;
    status = Manifest.Completed;
    duration_s;
    attempts;
    shape_passed;
    shape_total;
    failed_checks;
    degraded_samples = Experiments.Common.degraded_count outcome;
    exit_reason =
      (if failed_checks = [] then "completed"
       else
         Printf.sprintf "completed; %d/%d shape checks failed"
           (List.length failed_checks) shape_total);
    finished_unix = Obs.Clock.now ();
  }

let entry_of_crash (e : Experiments.Common.t) ~attempts ~duration_s ~exn ~backtrace =
  let base status exit_reason =
    {
      Manifest.id = e.Experiments.Common.id;
      status;
      duration_s;
      attempts;
      shape_passed = 0;
      shape_total = 0;
      failed_checks = [];
      degraded_samples = 0;
      exit_reason;
      finished_unix = Obs.Clock.now ();
    }
  in
  match exn with
  | Watchdog.Deadline_exceeded { elapsed_s; limit_s } ->
    base
      (Manifest.Timed_out { limit_s })
      (Printf.sprintf "deadline: %.2fs elapsed of %gs" elapsed_s limit_s)
  | Watchdog.Eval_budget_exceeded { evaluations; limit } ->
    base
      (Manifest.Out_of_budget { limit })
      (Printf.sprintf "eval budget: %d of %d spent" evaluations limit)
  | _ ->
    base
      (Manifest.Failed { exn = Printexc.to_string exn; backtrace })
      ("crashed: " ^ Printexc.to_string exn)

let supervise ?(limits = Watchdog.no_limits) ?(retry = no_retry) ?rng
    ?(sleep = Unix.sleepf) (e : Experiments.Common.t) =
  (* backtraces are the whole point of the Failed record *)
  Printexc.record_backtrace true;
  let t_start = Obs.Clock.now () in
  let duration () = Obs.Clock.elapsed ~since:t_start in
  let rec go attempt =
    match attempt_once limits e with
    | Ran outcome ->
      {
        entry = entry_of_completed e ~attempts:attempt ~duration_s:(duration ()) outcome;
        outcome = Some outcome;
      }
    | Crashed { exn; backtrace } ->
      if attempt < retry.max_attempts && retryable exn then begin
        sleep (backoff_delay ?rng retry ~attempt);
        go (attempt + 1)
      end
      else
        {
          entry = entry_of_crash e ~attempts:attempt ~duration_s:(duration ()) ~exn ~backtrace;
          outcome = None;
        }
  in
  go 1

(* supervise, but with the Retrying event threaded through; kept apart
   so [supervise] stays event-free for library callers *)
let supervise_with_events ~limits ~retry ?rng ~sleep ~on_event (e : Experiments.Common.t) =
  let id = e.Experiments.Common.id in
  let attempt_no = ref 1 in
  let sleep_and_report s =
    on_event
      (Retrying
         {
           id;
           next_attempt = !attempt_no + 1;
           backoff_s = s;
           reason = "retryable solver failure";
         });
    incr attempt_no;
    sleep s
  in
  on_event (Started { id; attempt = 1 });
  let result = supervise ~limits ~retry ?rng ~sleep:sleep_and_report e in
  on_event (Finished result);
  result

let sweep ?(limits = Watchdog.no_limits) ?(retry = no_retry) ?rng
    ?(sleep = Unix.sleepf) ?manifest_path ?(resume = false) ?on_warning
    ?(on_event = fun (_ : event) -> ()) (experiments : Experiments.Common.t list) =
  let initial =
    match (manifest_path, resume, on_warning) with
    | Some path, true, None -> Manifest.load ~path
    | Some path, true, Some warn -> Manifest.load_lenient ~path ~on_warning:warn
    | _ -> Ok (Manifest.empty ())
  in
  match initial with
  | Error _ as e -> e
  | Ok manifest ->
    let persist m =
      match manifest_path with Some path -> Manifest.save ~path m | None -> ()
    in
    let manifest, ran, skipped =
      List.fold_left
        (fun (manifest, ran, skipped) (e : Experiments.Common.t) ->
          let id = e.Experiments.Common.id in
          match Manifest.find manifest id with
          | Some entry when resume && Manifest.successful entry ->
            on_event (Skipped { id });
            (manifest, ran, skipped + 1)
          | _ ->
            let result = supervise_with_events ~limits ~retry ?rng ~sleep ~on_event e in
            let manifest = Manifest.set manifest result.entry in
            persist manifest;
            (manifest, ran + 1, skipped))
        (manifest, 0, 0) experiments
    in
    (* cover the empty-experiment-list / all-skipped cases too: the
       manifest on disk always reflects this sweep *)
    persist manifest;
    let failed =
      List.length
        (List.filter (fun e -> not (Manifest.successful e)) (Manifest.entries manifest))
    in
    Ok { manifest; ran; skipped; failed }
