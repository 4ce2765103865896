type method_ = Newton | Secant | Brent | Bisection

let method_name = function
  | Newton -> "newton"
  | Secant -> "secant"
  | Brent -> "brent"
  | Bisection -> "bisection"

type failure =
  | Non_finite of { at : float; value : float }
  | No_bracket of { lo : float; hi : float }
  | Budget_exhausted of { evaluations : int }
  | Diverged of { residual : float }
  | Out_of_domain of { root : float }
  | Not_converged of { detail : string }

let failure_message = function
  | Non_finite { at; value } -> Printf.sprintf "non-finite value %g at x=%g" value at
  | No_bracket { lo; hi } -> Printf.sprintf "no sign change bracketable from [%g, %g]" lo hi
  | Budget_exhausted { evaluations } ->
    Printf.sprintf "evaluation budget exhausted after %d calls" evaluations
  | Diverged { residual } -> Printf.sprintf "diverged (residual %g)" residual
  | Out_of_domain { root } -> Printf.sprintf "root %g outside the admissible domain" root
  | Not_converged { detail } -> detail

type attempt = { method_ : method_; evaluations : int; failure : failure }

type error = {
  attempts : attempt list;
  last_residual : float;
  bracket_history : (float * float) list;
}

exception Solver_error of error

let error_message e =
  let per_attempt a =
    Printf.sprintf "%s: %s (%d evals)" (method_name a.method_)
      (failure_message a.failure) a.evaluations
  in
  Printf.sprintf "all solvers failed [%s]; last residual %g"
    (String.concat "; " (List.map per_attempt e.attempts))
    e.last_residual

let () =
  Printexc.register_printer (function
    | Solver_error e -> Some ("Robust.Solver_error: " ^ error_message e)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* telemetry: every event lands in the Obs.Metrics registry, labelled
   by the layer of the equilibrium pipeline that asked (ctx) and by the
   method/failure involved; the [stats] record below is a compatibility
   facade that aggregates the registry back into the old counter blob *)

let default_ctx = "unlabeled"

type layer_handles = {
  root_calls_c : Obs.Metrics.counter;
  attempt_c : method_ -> Obs.Metrics.counter;
  fault_c : failure -> Obs.Metrics.counter;
  fallbacks_c : Obs.Metrics.counter;
  root_failures_c : Obs.Metrics.counter;
  root_latency_h : Obs.Metrics.histogram;
  root_evals_h : Obs.Metrics.histogram;
}

let make_handles layer =
  let l = [ ("layer", layer) ] in
  let attempt_of m =
    Obs.Metrics.counter ~labels:(("method", method_name m) :: l) "solver.attempts"
  in
  let newton = attempt_of Newton
  and secant = attempt_of Secant
  and brent = attempt_of Brent
  and bisection = attempt_of Bisection in
  let fault_of name = Obs.Metrics.counter ~labels:(("reason", name) :: l) "solver.faults" in
  let non_finite = fault_of "non-finite"
  and no_bracket = fault_of "no-bracket"
  and budget = fault_of "budget"
  and diverged = fault_of "diverged"
  and out_of_domain = fault_of "out-of-domain"
  and not_converged = fault_of "not-converged" in
  {
    root_calls_c = Obs.Metrics.counter ~labels:l "solver.root.calls";
    attempt_c =
      (function
      | Newton -> newton
      | Secant -> secant
      | Brent -> brent
      | Bisection -> bisection);
    fault_c =
      (function
      | Non_finite _ -> non_finite
      | No_bracket _ -> no_bracket
      | Budget_exhausted _ -> budget
      | Diverged _ -> diverged
      | Out_of_domain _ -> out_of_domain
      | Not_converged _ -> not_converged);
    fallbacks_c = Obs.Metrics.counter ~labels:l "solver.fallbacks";
    root_failures_c = Obs.Metrics.counter ~labels:l "solver.failures";
    root_latency_h = Obs.Metrics.histogram ~labels:l "solver.latency";
    root_evals_h = Obs.Metrics.histogram ~labels:l "solver.evaluations";
  }

(* the handle cache is domain-local: each domain lazily rebuilds its
   own handle records, and [Obs.Metrics] find-or-create registration
   hands every domain the same underlying series, so the cache needs
   no lock and the counters still aggregate process-wide *)
let handles_key : (string, layer_handles) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let handles layer =
  let handles_by_layer = Domain.DLS.get handles_key in
  match Hashtbl.find_opt handles_by_layer layer with
  | Some h -> h
  | None ->
    let h = make_handles layer in
    Hashtbl.add handles_by_layer layer h;
    h

type stats = {
  root_calls : int;
  newton_attempts : int;
  secant_attempts : int;
  brent_attempts : int;
  bisection_attempts : int;
  fallbacks : int;
  non_finite : int;
  no_bracket : int;
  budget_exhausted : int;
  diverged : int;
  failures : int;
}

let stats () =
  let total name = int_of_float (Obs.Metrics.sum_counters name) in
  let by name key value =
    int_of_float
      (Obs.Metrics.sum_counters
         ~where:(fun labels -> Obs.Metrics.label labels key = Some value)
         name)
  in
  let attempts m = by "solver.attempts" "method" (method_name m) in
  let faults reason = by "solver.faults" "reason" reason in
  {
    root_calls = total "solver.root.calls";
    newton_attempts = attempts Newton;
    secant_attempts = attempts Secant;
    brent_attempts = attempts Brent;
    bisection_attempts = attempts Bisection;
    fallbacks = total "solver.fallbacks";
    non_finite = faults "non-finite";
    no_bracket = faults "no-bracket";
    budget_exhausted = faults "budget";
    diverged = faults "diverged";
    failures = total "solver.failures";
  }

let reset_stats () = Obs.Metrics.reset ~prefix:"solver." ()

let stats_summary () =
  let s = stats () in
  Printf.sprintf
    "root calls %d (newton %d, secant %d, brent %d, bisection %d) | fallbacks %d | \
     faults: non-finite %d, no-bracket %d, budget %d, diverged %d | unrecovered \
     failures %d"
    s.root_calls s.newton_attempts s.secant_attempts s.brent_attempts
    s.bisection_attempts s.fallbacks s.non_finite s.no_bracket s.budget_exhausted
    s.diverged s.failures

(* ------------------------------------------------------------------ *)
(* guarded evaluation *)

exception Poison of { at : float; value : float }

type probe = unit -> unit

(* cooperative-cancellation probe: called before every guarded
   objective evaluation (chain and fused root paths). A supervisor
   (Runner.Watchdog) installs a closure that raises its own deadline /
   budget exception; anything the probe raises is deliberately NOT part
   of the failure taxonomy below, so it escapes the fallback chain and
   unwinds to whoever installed it. Installation is domain-local; the
   pool re-installs the submitting domain's composed probe around each
   task ([snapshot_probe]/[with_probe_snapshot]) so a watchdog keeps
   seeing evaluations its experiment spends on worker domains. *)
let probe_key : probe Domain.DLS.key = Domain.DLS.new_key (fun () -> ignore)

let with_probe p f =
  let prev = Domain.DLS.get probe_key in
  (* compose so nested guards all keep firing *)
  Domain.DLS.set probe_key (fun () ->
      prev ();
      p ());
  Fun.protect ~finally:(fun () -> Domain.DLS.set probe_key prev) f

let snapshot_probe () = Domain.DLS.get probe_key

let with_probe_snapshot p f =
  let prev = Domain.DLS.get probe_key in
  Domain.DLS.set probe_key p;
  Fun.protect ~finally:(fun () -> Domain.DLS.set probe_key prev) f

(* every guarded evaluation funnels through here: first the probe
   (cancellation), then the process-global fault, if one is installed *)
let observed_eval f x =
  (Domain.DLS.get probe_key) ();
  Fault.global_wrap f x

(* ------------------------------------------------------------------ *)
(* root finding with a fallback chain *)

type success = { result : Rootfind.result; method_used : method_; fallbacks : int }

let root ?(tol = 1e-12) ?(max_iter = 200) ?df ?x0 ?domain ?(ctx = default_ctx) f ~lo ~hi =
  if not (Float.is_finite lo && Float.is_finite hi) || lo >= hi then
    invalid_arg (Printf.sprintf "Robust.root: bad interval [%g, %g]" lo hi);
  let h = handles ctx in
  Obs.Metrics.incr h.root_calls_c;
  let t_start = Obs.Clock.now () in
  let evals = ref 0 in
  let last_residual = ref Float.infinity in
  let guarded x =
    incr evals;
    let y = observed_eval f x in
    if Float.is_finite y then begin
      last_residual := Float.abs y;
      y
    end
    else raise (Poison { at = x; value = y })
  in
  let in_domain r =
    match domain with None -> true | Some (a, b) -> r >= a && r <= b
  in
  let attempts = ref [] in
  let brackets = ref [ (lo, hi) ] in
  let note method_ evals_before failure =
    Obs.Metrics.incr (h.fault_c failure);
    attempts :=
      { method_; evaluations = !evals - evals_before; failure }
      :: !attempts
  in
  let error () =
    {
      attempts = List.rev !attempts;
      last_residual = !last_residual;
      bracket_history = List.rev !brackets;
    }
  in
  let methods =
    (match df with
    | Some df ->
      let x0 = match x0 with Some x -> x | None -> 0.5 *. (lo +. hi) in
      [ (Newton, fun () -> Rootfind.newton ~tol ~max_iter guarded ~df ~x0) ]
    | None -> [])
    @ [
        (Secant, fun () -> Rootfind.secant ~tol ~max_iter guarded ~x0:lo ~x1:hi);
        (Brent, fun () -> Rootfind.brent_auto ~tol ~max_iter guarded ~lo ~hi);
        ( Bisection,
          fun () ->
            let blo, bhi =
              Rootfind.bracket_outward ~factor:3. ~max_expand:100 guarded ~lo ~hi
            in
            brackets := (blo, bhi) :: !brackets;
            Rootfind.bisect ~tol ~max_iter:(2 * max_iter) guarded ~lo:blo ~hi:bhi );
      ]
  in
  let rec run = function
    | [] ->
      Obs.Metrics.incr h.root_failures_c;
      Error (error ())
    | (method_, attempt) :: rest ->
      Obs.Metrics.incr (h.attempt_c method_);
      let evals_before = !evals in
      let fail failure =
        note method_ evals_before failure;
        run rest
      in
      (match attempt () with
      | r ->
        if
          Float.is_finite r.Rootfind.root
          && Float.is_finite r.Rootfind.value
          && in_domain r.Rootfind.root
        then begin
          let fallbacks = List.length !attempts in
          Obs.Metrics.incr ~by:(float_of_int fallbacks) h.fallbacks_c;
          Ok { result = r; method_used = method_; fallbacks }
        end
        else fail (Out_of_domain { root = r.Rootfind.root })
      | exception Poison { at; value } -> fail (Non_finite { at; value })
      | exception Rootfind.No_bracket _ -> fail (No_bracket { lo; hi })
      | exception Rootfind.No_convergence msg -> fail (Not_converged { detail = msg })
      | exception Invalid_argument msg -> fail (Not_converged { detail = msg })
      | exception Fault.Budget_exceeded n ->
        (* the budget is shared by every link of the chain: falling back
           further cannot help, so report the typed error immediately *)
        note method_ evals_before (Budget_exhausted { evaluations = n });
        Obs.Metrics.incr h.root_failures_c;
        Error (error ()))
  in
  let outcome = run methods in
  Obs.Metrics.observe h.root_latency_h (Obs.Clock.elapsed ~since:t_start);
  Obs.Metrics.observe h.root_evals_h (float_of_int !evals);
  outcome
[@@sublint.allow "EXN-ESCAPE"
    "thunk-driver: the method thunks raise Poison/No_bracket/No_convergence/\
     Budget_exceeded, and run's match-exception arms catch every one of them \
     non-lexically (per attempt) and fold it into the Error fallback chain — \
     nothing escapes the result type"]

(* ------------------------------------------------------------------ *)
(* fused Newton: value and slope from one objective evaluation,
   projected on a box — the continuation corrector's inner solver *)

type bound = Interior | Lower | Upper

type projected = {
  x : float;
  value : float;
  bound : bound;
  iterations : int;
  evaluations : int;
}

let root_fused ?(tol = 1e-12) ?(max_iter = 60) ?(halvings = 5) ?(ctx = default_ctx)
    f_df ~x0 ~lo ~hi =
  if not (Float.is_finite lo && Float.is_finite hi) || lo > hi then
    Precondition.fail ~fn:"Robust.root_fused"
      (Printf.sprintf "bad interval [%g, %g]" lo hi);
  let h = handles ctx in
  Obs.Metrics.incr h.root_calls_c;
  Obs.Metrics.incr (h.attempt_c Newton);
  let t_start = Obs.Clock.now () in
  let evals = ref 0 in
  let last_residual = ref Float.infinity in
  let guarded x =
    (Domain.DLS.get probe_key) ();
    incr evals;
    let u, du = f_df x in
    (* route the value through any installed fault so the chaos harness
       reaches fused evaluations exactly as it reaches chain ones *)
    let u = Fault.global_wrap (fun _ -> u) x in
    if Float.is_finite u then begin
      last_residual := Float.abs u;
      (u, du)
    end
    else raise (Poison { at = x; value = u })
  in
  let clamp x = Float.max lo (Float.min hi x) in
  (* directed bracket of the DECREASING crossing (the first-order
     condition of a maximum): [blo] is the rightmost point seen with
     u > 0, [bhi] the leftmost with u < 0; both only tighten *)
  let blo = ref Float.nan and bhi = ref Float.nan in
  let note_sign x u =
    if u > 0. then (if not (!blo >= x) then blo := x)
    else if not (!bhi <= x) then bhi := x
  in
  let bracketed () = Float.is_finite !blo && Float.is_finite !bhi && !blo < !bhi in
  let fail failure =
    Obs.Metrics.incr (h.fault_c failure);
    Obs.Metrics.incr h.root_failures_c;
    Error
      {
        attempts =
          [ { method_ = Newton; evaluations = !evals; failure } ];
        last_residual = !last_residual;
        bracket_history = [ (lo, hi) ];
      }
  in
  let finish x value bound iter =
    Ok { x; value; bound; iterations = iter; evaluations = !evals }
  in
  let rec step x u du iter =
    if Float.abs u <= tol then finish x u Interior iter
    else begin
      note_sign x u;
      (* KKT corners first: the marginal pushes outward at a box edge *)
      if x -. lo <= 0. && u < 0. then finish lo u Lower iter
      else if hi -. x <= 0. && u > 0. then finish hi u Upper iter
      else if iter >= max_iter then
        fail (Not_converged { detail = "fused Newton: iteration budget exhausted" })
      else begin
        (* Newton only where the objective is locally concave (du < 0,
           so the step chases the decreasing crossing); elsewhere LEAP
           uphill in the sign direction — the leap lands on a KKT
           corner or establishes the bracket, never on the wrong
           (increasing) stationary point *)
        let concave = Float.is_finite du && du < 0. in
        let leap0 = not concave in
        let xc0 = if concave then x -. (u /. du) else if u > 0. then hi else lo in
        let xc, leap =
          if bracketed () && (xc0 <= !blo || xc0 >= !bhi) then
            (0.5 *. (!blo +. !bhi), true)
          else (clamp xc0, leap0)
        in
        if Float.abs (xc -. x) <= tol *. (1. +. Float.abs x) then
          (* interior stall: the crossing moved below resolution *)
          finish x u Interior iter
        else begin
          let uc, duc = guarded xc in
          if leap then step xc uc duc (iter + 1)
          else begin
            (* damp a Newton step that made the residual worse *)
            let rec damped xc uc duc k =
              if Float.abs uc <= Float.abs u || k >= halvings then (xc, uc, duc)
              else begin
                let xh = 0.5 *. (x +. xc) in
                let uh, duh = guarded xh in
                damped xh uh duh (k + 1)
              end
            in
            let xc, uc, duc = damped xc uc duc 0 in
            if Float.abs uc >= Float.abs u && Float.abs uc > tol then begin
              note_sign xc uc;
              if bracketed () then begin
                let xm = 0.5 *. (!blo +. !bhi) in
                let um, dum = guarded xm in
                step xm um dum (iter + 1)
              end
              else fail (Diverged { residual = Float.abs uc })
            end
            else step xc uc duc (iter + 1)
          end
        end
      end
    end
  in
  let outcome =
    match
      let x = clamp x0 in
      let u, du = guarded x in
      step x u du 0
    with
    | r -> r
    | exception Poison { at; value } -> fail (Non_finite { at; value })
    | exception Fault.Budget_exceeded n -> fail (Budget_exhausted { evaluations = n })
    | exception Invalid_argument msg -> fail (Not_converged { detail = msg })
  in
  Obs.Metrics.observe h.root_latency_h (Obs.Clock.elapsed ~since:t_start);
  Obs.Metrics.observe h.root_evals_h (float_of_int !evals);
  outcome
[@@sublint.allow "EXN-ESCAPE"
    "the guarded evaluator raises Poison/Budget_exceeded and the single \
     match-exception block at the bottom folds every one of them into the \
     typed Error — nothing escapes the result type"]
