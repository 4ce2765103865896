exception Deadline_exceeded of { elapsed_s : float; limit_s : float }
exception Eval_budget_exceeded of { evaluations : int; limit : int }

let () =
  Printexc.register_printer (function
    | Deadline_exceeded { elapsed_s; limit_s } ->
      Some
        (Printf.sprintf "Watchdog.Deadline_exceeded: %.2fs elapsed of a %gs limit"
           elapsed_s limit_s)
    | Eval_budget_exceeded { evaluations; limit } ->
      Some
        (Printf.sprintf
           "Watchdog.Eval_budget_exceeded: %d evaluations of a %d-eval budget"
           evaluations limit)
    | _ -> None)

type limits = { deadline_s : float option; max_evals : int option }

let no_limits = { deadline_s = None; max_evals = None }

let limits ?deadline_s ?max_evals () =
  (match deadline_s with
  | Some d when (not (Float.is_finite d)) || d <= 0. ->
    invalid_arg (Printf.sprintf "Watchdog.limits: deadline_s must be positive, got %g" d)
  | _ -> ());
  (match max_evals with
  | Some n when n <= 0 ->
    invalid_arg (Printf.sprintf "Watchdog.limits: max_evals must be positive, got %d" n)
  | _ -> ());
  { deadline_s; max_evals }

let guard lims f =
  match lims with
  | { deadline_s = None; max_evals = None } -> f ()
  | { deadline_s; max_evals } ->
    let started = Obs.Clock.now () in
    (* atomic: the probe is propagated to pool workers, which must all
       charge the same budget *)
    let evals = Atomic.make 0 in
    let check () =
      let seen = 1 + Atomic.fetch_and_add evals 1 in
      (match max_evals with
      | Some limit when seen > limit ->
        raise (Eval_budget_exceeded { evaluations = seen; limit })
      | _ -> ());
      match deadline_s with
      | Some limit_s ->
        let elapsed_s = Obs.Clock.elapsed ~since:started in
        if elapsed_s > limit_s then raise (Deadline_exceeded { elapsed_s; limit_s })
      | None -> ()
    in
    Numerics.Robust.with_probe check f
