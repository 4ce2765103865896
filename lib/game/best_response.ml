open Numerics

type game = {
  box : Box.t;
  payoff : int -> Vec.t -> float;
  marginal : (int -> Vec.t -> float) option;
  fused : (int -> Vec.t -> float -> float * float) option;
  respond_points : int;
}

type scheme = Gauss_seidel | Jacobi

type outcome = { profile : Vec.t; sweeps : int; moves : float list; converged : bool }

let make ?marginal ?fused ?(respond_points = 25) ~box ~payoff () =
  Precondition.require ~fn:"Best_response.make" (respond_points >= 5)
    "respond_points < 5";
  { box; payoff; marginal; fused; respond_points }

let with_coord s i si =
  let s' = Vec.copy s in
  s'.(i) <- si;
  s'

(* Best reply via first-order sign scan: the box ends plus every root of
   the marginal payoff are stationary candidates. *)
let respond_with_marginal game marginal i s =
  let lo = Box.lo_i game.box i and hi = Box.hi_i game.box i in
  if lo = hi then lo
  else begin
    let u si = marginal i (with_coord s i si) in
    let grid = Grid.linspace lo hi (Stdlib.max 5 (game.respond_points / 2)) in
    let values = Array.map u grid in
    let candidates = ref [ lo; hi ] in
    for k = 0 to Array.length grid - 2 do
      let a = values.(k) and b = values.(k + 1) in
      if a = 0. then candidates := grid.(k) :: !candidates
      else if a *. b < 0. then begin
        (* a stationary candidate the robust chain cannot pin down is
           dropped: the scan endpoints still bound the best reply *)
        match
          Robust.root u ~ctx:"best_response" ~lo:grid.(k) ~hi:grid.(k + 1)
            ~domain:(grid.(k), grid.(k + 1))
        with
        | Ok r -> candidates := r.Robust.result.Rootfind.root :: !candidates
        | Error _ -> ()
      end
    done;
    let payoff si = game.payoff i (with_coord s i si) in
    let best = ref lo and best_val = ref neg_infinity in
    List.iter
      (fun c ->
        let v = payoff c in
        if v > !best_val then begin
          best_val := v;
          best := c
        end)
      !candidates;
    !best
  end

let respond_derivative_free game i s =
  let lo = Box.lo_i game.box i and hi = Box.hi_i game.box i in
  if lo = hi then lo
  else begin
    let payoff si = game.payoff i (with_coord s i si) in
    let r = Optimize.grid_then_golden ~points:game.respond_points payoff ~lo ~hi in
    r.Optimize.x
  end

(* Fused path: the marginal and its slope come out of one dual pass, so
   the reply is a projected damped Newton from the current coordinate —
   no grid scan, no per-crossing root chain. [None] means the corrector
   and its fallback chain both failed; the caller re-scans. *)
let respond_with_fused game fused i s =
  let lo = Box.lo_i game.box i and hi = Box.hi_i game.box i in
  if lo = hi then Some lo
  else begin
    let f_df si = fused i s si in
    match Continuation.correct ~ctx:"best_response" f_df ~x0:s.(i) ~lo ~hi with
    | Continuation.Converged p -> Some p.Robust.x
    | Continuation.Fell_back r -> Some r.Robust.result.Rootfind.root
    | Continuation.Failed _ -> None
  end

let respond_scan game i s =
  match game.marginal with
  | Some marginal -> respond_with_marginal game marginal i s
  | None -> respond_derivative_free game i s

let respond game i s =
  match game.fused with
  | Some fused -> (
      match respond_with_fused game fused i s with
      | Some reply -> reply
      | None -> respond_scan game i s)
  | None -> respond_scan game i s

let solve ?(scheme = Gauss_seidel) ?(damping = 1.) ?(tol = 1e-10) ?(max_sweeps = 500)
    game ~x0 =
  Precondition.require ~fn:"Best_response.solve"
    (damping > 0. && damping <= 1.)
    "damping must lie in (0, 1]";
  let n = Box.dim game.box in
  Precondition.require ~fn:"Best_response.solve" (Vec.dim x0 = n)
    "profile dimension mismatch";
  Obs.Trace.with_span "best_response.solve" @@ fun () ->
  let s = ref (Box.project game.box x0) in
  let sweep () =
    let base = Vec.copy !s in
    let next = Vec.copy !s in
    for i = 0 to n - 1 do
      let current = match scheme with Gauss_seidel -> next | Jacobi -> base in
      let reply = respond game i current in
      next.(i) <- ((1. -. damping) *. current.(i)) +. (damping *. reply)
    done;
    let moved = Vec.dist_inf next !s in
    s := next;
    moved
  in
  let rec loop k moves =
    let moved = sweep () in
    let moves = moved :: moves in
    if moved <= tol || k >= max_sweeps then
      { profile = !s; sweeps = k; moves = List.rev moves; converged = moved <= tol }
    else loop (k + 1) moves
  in
  let outcome = loop 1 [] in
  if Obs.Trace.enabled () then begin
    Obs.Trace.add_attr "sweeps" (string_of_int outcome.sweeps);
    Obs.Trace.add_attr "converged" (string_of_bool outcome.converged)
  end;
  outcome

let contraction_estimate outcome =
  if List.length outcome.moves < 4 then None
  else begin
    let rec ratios = function
      | a :: (b :: _ as rest) when a > 0. -> (b /. a) :: ratios rest
      | _ :: rest -> ratios rest
      | [] -> []
    in
    match List.filter (fun r -> r > 0.) (ratios outcome.moves) with
    | [] -> None
    | positive ->
      Some
        (exp
           (List.fold_left (fun acc r -> acc +. log r) 0. positive
           /. float_of_int (List.length positive)))
  end

let solve_multistart ?scheme ?damping ?tol ?max_sweeps ?(starts = 5) rng game =
  Precondition.require ~fn:"Best_response.solve_multistart" (starts >= 1)
    "starts must be positive";
  let fixed = [ Box.center game.box; Box.lo game.box; Box.hi game.box ] in
  let extra = List.init (Stdlib.max 0 (starts - 3)) (fun _ -> Box.random_point rng game.box) in
  let points =
    match List.filteri (fun k _ -> k < starts) (fixed @ extra) with
    | [] -> [ Box.center game.box ]
    | pts -> pts
  in
  List.map (fun x0 -> solve ?scheme ?damping ?tol ?max_sweeps game ~x0) points
