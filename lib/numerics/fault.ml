exception Budget_exceeded of int

type mode =
  | Nan_region of { lo : float; hi : float }
  | Nan_after of int
  | Spike of { at : float; width : float; height : float }
  | Budget of int
  | Plateau of { lo : float; hi : float; level : float }

type injected = {
  f : float -> float;
  evaluations : unit -> int;
  triggered : unit -> int;
}

(* one evaluation through [mode], charging the supplied counters; the
   shared core of per-objective [inject] and the process-global hook.
   [bump] counts the evaluation and returns the total so far, [fired]
   counts a corrupted one — parameterized so [inject] can use plain
   refs while the cross-domain global uses atomics *)
let eval ~mode ~bump ~fired f x =
  let n = bump () in
  let fire y =
    fired ();
    y
  in
  match mode with
  | Nan_region { lo; hi } -> if x >= lo && x <= hi then fire Float.nan else f x
  | Nan_after k -> if n > k then fire Float.nan else f x
  | Spike { at; width; height } ->
    if Float.abs (x -. at) <= width then fire (f x +. height) else f x
  | Budget k -> if n > k then raise (Budget_exceeded k) else f x
  | Plateau { lo; hi; level } -> if x >= lo && x <= hi then fire level else f x

let inject mode f =
  let evals = ref 0 and fired = ref 0 in
  let bump () =
    incr evals;
    !evals
  in
  {
    f = (fun x -> eval ~mode ~bump ~fired:(fun () -> incr fired) f x);
    evaluations = (fun () -> !evals);
    triggered = (fun () -> !fired);
  }

(* ------------------------------------------------------------------ *)
(* process-global injection (Robust applies it to every guarded eval) *)

(* the installed fault is domain-local (a worker only injects faults
   when its submitting batch propagated one via [with_snapshot]), but
   the counters inside one installation are shared atomics: every
   domain evaluating under the same snapshot charges the same budget,
   so [Nan_after n] still means n evaluations across the whole sweep *)
type global = { g_mode : mode; g_evals : int Atomic.t; g_fired : int Atomic.t }

type snapshot = global option

let installed_key : global option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let set_global mode =
  Domain.DLS.set installed_key
    (Option.map
       (fun m -> { g_mode = m; g_evals = Atomic.make 0; g_fired = Atomic.make 0 })
       mode)

let snapshot () = Domain.DLS.get installed_key

let with_snapshot s f =
  let prev = Domain.DLS.get installed_key in
  Domain.DLS.set installed_key s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set installed_key prev) f

let global_mode () = Option.map (fun g -> g.g_mode) (Domain.DLS.get installed_key)

let global_wrap f x =
  match Domain.DLS.get installed_key with
  | None -> f x
  | Some g ->
    eval ~mode:g.g_mode
      ~bump:(fun () -> 1 + Atomic.fetch_and_add g.g_evals 1)
      ~fired:(fun () -> Atomic.incr g.g_fired)
      f x

let global_evaluations () =
  match Domain.DLS.get installed_key with None -> 0 | Some g -> Atomic.get g.g_evals

let global_triggered () =
  match Domain.DLS.get installed_key with None -> 0 | Some g -> Atomic.get g.g_fired
