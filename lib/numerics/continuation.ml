(* handles survive Obs.Metrics.reset (cells are zeroed in place) *)
let steps_c = Obs.Metrics.counter "continuation.steps"
let accepts_c = Obs.Metrics.counter "continuation.predictor.accepts"
let iters_c = Obs.Metrics.counter "continuation.corrector.iters"
let fallbacks_c = Obs.Metrics.counter "continuation.fallbacks"

(* ------------------------------------------------------------------ *)
(* predictor track: the last two solved cells along one axis *)

type point = { at : float; x : Vec.t }
type track = { mutable prev : point option; mutable last : point option }

let track () = { prev = None; last = None }

let clear t =
  t.prev <- None;
  t.last <- None

let note t ~at x =
  t.prev <- t.last;
  t.last <- Some { at; x = Vec.copy x }

let predict ?tangent t ~at =
  match t.last with
  | None -> None
  | Some l -> (
    match t.prev with
    | Some p when Float.abs (l.at -. p.at) > 0. ->
      (* secant through the last two cells *)
      let r = (at -. l.at) /. (l.at -. p.at) in
      Some (Vec.axpy r (Vec.sub l.x p.x) l.x)
    | _ -> (
      match tangent with
      | Some dxdat -> Some (Vec.axpy (at -. l.at) (dxdat ()) l.x)
      | None -> Some (Vec.copy l.x)))

(* ------------------------------------------------------------------ *)
(* corrector: fused Newton, then the classic chain *)

type correction =
  | Converged of Robust.projected
  | Fell_back of Robust.success
  | Failed of Robust.error

let correct ?tol ?max_iter ?ctx f_df ~x0 ~lo ~hi =
  match Robust.root_fused ?tol ?max_iter ?ctx f_df ~x0 ~lo ~hi with
  | Ok p ->
    Obs.Metrics.incr ~by:(float_of_int p.Robust.iterations) iters_c;
    Converged p
  | Error _ ->
    (* re-enter through the derivative-free chain: genuinely different
       methods than the Newton iteration that just failed *)
    Obs.Metrics.incr fallbacks_c;
    let f x = fst (f_df x) in
    (match Robust.root ?tol ?ctx f ~lo ~hi with
    | Ok s -> Fell_back s
    | Error e -> Failed e)

let record_correction ~iterations ~fell_back =
  Obs.Metrics.incr ~by:(float_of_int iterations) iters_c;
  if fell_back then Obs.Metrics.incr fallbacks_c

(* ------------------------------------------------------------------ *)
(* cell driver *)

let solve_cell ?tangent ?(clamp = fun (v : Vec.t) -> v) t ~at ~solve ~extract () =
  Obs.Metrics.incr steps_c;
  let finish ~predicted a =
    let x, converged = extract a in
    if converged then begin
      if predicted then Obs.Metrics.incr accepts_c;
      note t ~at x
    end
    else
      (* never extrapolate through a cell that did not settle *)
      clear t;
    a
  in
  let cold () = finish ~predicted:false (solve None) in
  match Option.map clamp (predict ?tangent t ~at) with
  | None -> cold ()
  | Some g -> (
    match solve (Some g) with
    | a ->
      let _, converged = extract a in
      if converged then finish ~predicted:true a
      else begin
        Obs.Metrics.incr fallbacks_c;
        clear t;
        cold ()
      end
    | exception Robust.Solver_error _ ->
      Obs.Metrics.incr fallbacks_c;
      clear t;
      cold ())

(* ------------------------------------------------------------------ *)

type stats = {
  steps : float;
  predictor_accepts : float;
  corrector_iterations : float;
  fallbacks : float;
}

let stats () =
  {
    steps = Obs.Metrics.counter_value steps_c;
    predictor_accepts = Obs.Metrics.counter_value accepts_c;
    corrector_iterations = Obs.Metrics.counter_value iters_c;
    fallbacks = Obs.Metrics.counter_value fallbacks_c;
  }

let reset_stats () = Obs.Metrics.reset ~prefix:"continuation." ()

let stats_summary () =
  let s = stats () in
  Printf.sprintf
    "continuation: steps %.0f, predictor accepts %.0f, corrector iters %.0f, \
     fallbacks %.0f"
    s.steps s.predictor_accepts s.corrector_iterations s.fallbacks
