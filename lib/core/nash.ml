open Numerics

type classification = Lower | Interior | Upper

type equilibrium = {
  subsidies : Vec.t;
  state : System.state;
  utilities : Vec.t;
  classes : classification array;
  sweeps : int;
  converged : bool;
  kkt_residual : float;
}

let classify ?(tol = 1e-7) game ~subsidies =
  let q = Subsidy_game.cap game in
  Array.map
    (fun si ->
      if si <= tol then Lower else if si >= q -. tol then Upper else Interior)
    subsidies

(* the Theorem-3 violation of the marginals [u] at [subsidies] *)
let kkt_of_marginals game ~subsidies u =
  let classes = classify game ~subsidies in
  let worst = ref 0. in
  Array.iteri
    (fun i c ->
      let violation =
        match c with
        | Lower -> Float.max 0. u.(i)
        | Upper -> Float.max 0. (-.u.(i))
        | Interior -> Float.abs u.(i)
      in
      worst := Float.max !worst violation)
    classes;
  !worst

let kkt_residual game ~subsidies =
  kkt_of_marginals game ~subsidies (Subsidy_game.marginal_utilities game ~subsidies)

(* the equilibrium record of a solved profile: utilities and the KKT
   certificate come from the one utilization equilibrium [state] *)
let certify game ~subsidies ~state ~marginals ~sweeps ~converged =
  {
    subsidies;
    state;
    utilities = Subsidy_game.utilities ~state game ~subsidies;
    classes = classify game ~subsidies;
    sweeps;
    converged;
    kkt_residual = kkt_of_marginals game ~subsidies marginals;
  }

let record game ~subsidies ~sweeps ~converged =
  let state = Subsidy_game.state game ~subsidies in
  let marginals = Subsidy_game.marginal_utilities ~state game ~subsidies in
  certify game ~subsidies ~state ~marginals ~sweeps ~converged

let solve ?scheme ?damping ?tol ?max_sweeps ?respond_points ?fused ?x0 game =
  Obs.Trace.with_span "nash.solve" @@ fun () ->
  let br_game = Subsidy_game.to_game ?respond_points ?fused game in
  let x0 = match x0 with Some x -> x | None -> Vec.zeros (Subsidy_game.dim game) in
  let outcome = Gametheory.Best_response.solve ?scheme ?damping ?tol ?max_sweeps br_game ~x0 in
  if Obs.Trace.enabled () then begin
    Obs.Trace.add_attr "sweeps" (string_of_int outcome.Gametheory.Best_response.sweeps);
    Obs.Trace.add_attr "converged"
      (string_of_bool outcome.Gametheory.Best_response.converged)
  end;
  record game ~subsidies:outcome.Gametheory.Best_response.profile
    ~sweeps:outcome.Gametheory.Best_response.sweeps
    ~converged:outcome.Gametheory.Best_response.converged

(* ------------------------------------------------------------------ *)
(* Newton corrector on the Theorem-3 conditions *)

(* the natural residual of VI(-u, [0,q]^n): s - P(s + u(s)), sup norm *)
let natural_residual ~cap subsidies u =
  let worst = ref 0. in
  Array.iteri
    (fun i si ->
      let projected = Float.min cap (Float.max 0. (si +. u.(i))) in
      worst := Float.max !worst (Float.abs (si -. projected)))
    subsidies;
  !worst

(* one semismooth Newton direction on the natural map: CPs the
   projection pins (s_i + u_i outside (0, q)) step to their bound, the
   free ones solve J_FF d_F = -(u_F + J_FA d_A). With d still zero on
   F, J_FA d_A is the rank-two coupling of d, and the free block is
   solved by Woodbury: O(n), no matrix formed *)
let newton_direction ~cap jac subsidies u =
  let n = Vec.dim subsidies in
  let d = Vec.zeros n in
  let free = ref [] in
  for i = n - 1 downto 0 do
    let trial = subsidies.(i) +. u.(i) in
    if trial <= 0. then d.(i) <- -.subsidies.(i)
    else if trial >= cap then d.(i) <- cap -. subsidies.(i)
    else free := i :: !free
  done;
  let free = Array.of_list !free in
  if Array.length free > 0 then begin
    let coupling = Rank2.couple jac d in
    let rhs = Array.map (fun k -> -.(u.(k) +. coupling.(k))) free in
    let step = Rank2.solve jac ~idx:free rhs in
    Array.iteri (fun idx k -> d.(k) <- step.(idx)) free
  end;
  d

(* the stopping test on the natural residual, and the step budget
   before the hand-off to best response *)
let newton_tol = 1e-11
let newton_max_iter = 12

let correct ~x0 game =
  Obs.Trace.with_span "nash.correct" @@ fun () ->
  let cap = Subsidy_game.cap game in
  let evaluate s =
    let state = Subsidy_game.state game ~subsidies:s in
    let u = Subsidy_game.marginal_utilities ~state game ~subsidies:s in
    (state, u, natural_residual ~cap s u)
  in
  (* backtrack on the natural residual: the full step first, then
     halvings, each projected back onto the box *)
  let rec search s d r t tries =
    if tries = 0 then None
    else begin
      let s' = Vec.clamp ~lo:0. ~hi:cap (Vec.axpy t d s) in
      let ((_, _, r') as e) = evaluate s' in
      if r' <= (1. -. (1e-4 *. t)) *. r then Some (s', e)
      else search s d r (0.5 *. t) (tries - 1)
    end
  in
  let rec iterate k s ((state, u, r) as e) =
    if r <= newton_tol then `Converged (k, s, e)
    else if k >= newton_max_iter then `Stalled (k, s)
    else
      match
        newton_direction ~cap (Subsidy_game.marginal_jacobian_exact ~state game ~subsidies:s) s u
      with
      | exception Linalg.Singular -> `Stalled (k, s)
      | d when not (Array.for_all Float.is_finite d) -> `Stalled (k, s)
      | d -> (
        match search s d r 1. 8 with
        | Some (s', e') -> iterate (k + 1) s' e'
        | None -> `Stalled (k, s))
  in
  let s0 = Vec.clamp ~lo:0. ~hi:cap x0 in
  match iterate 0 s0 (evaluate s0) with
  | `Converged (k, subsidies, (state, marginals, _)) ->
    Continuation.record_correction ~iterations:k ~fell_back:false;
    certify game ~subsidies ~state ~marginals ~sweeps:k ~converged:true
  | `Stalled (k, s) ->
    (* singular step, no descent or no budget left: the best-response
       loop from the best iterate so far *)
    Continuation.record_correction ~iterations:k ~fell_back:true;
    solve ~x0:s game

let solve_cell track ~at game =
  Continuation.solve_cell track ~at
    ~clamp:(Vec.clamp ~lo:0. ~hi:(Subsidy_game.cap game))
    ~solve:(function Some x0 -> correct ~x0 game | None -> solve game)
    ~extract:(fun eq -> (eq.subsidies, eq.converged))
    ()

let solve_result ?scheme ?damping ?tol ?max_sweeps ?respond_points ?fused ?x0 game =
  match solve ?scheme ?damping ?tol ?max_sweeps ?respond_points ?fused ?x0 game with
  | eq -> Ok eq
  | exception Robust.Solver_error e -> Error e

let solve_vi ?(gamma = 0.25) ?(tol = 1e-10) ?(max_iter = 100_000) ?x0 game =
  Obs.Trace.with_span "nash.solve_vi" @@ fun () ->
  let box = Subsidy_game.box game in
  let n = Subsidy_game.dim game in
  let x0 = match x0 with Some x -> x | None -> Vec.zeros n in
  let f s = Vec.map (fun u -> -.u) (Subsidy_game.marginal_utilities game ~subsidies:s) in
  let r = Gametheory.Vi.solve_extragradient ~gamma ~tol ~max_iter f box ~x0 in
  let subsidies =
    if r.Gametheory.Vi.converged then r.Gametheory.Vi.point else Gametheory.Box.project box x0
  in
  record game ~subsidies ~sweeps:r.Gametheory.Vi.iterations
    ~converged:r.Gametheory.Vi.converged

let threshold_consistency game ~subsidies =
  let q = Subsidy_game.cap game in
  let classes = classify game ~subsidies in
  let worst = ref 0. in
  Array.iteri
    (fun i c ->
      match c with
      | Lower ->
        (* tau_i = 0 = s_i automatically; nothing to check beyond KKT *)
        ()
      | Interior | Upper ->
        let tau = Subsidy_game.threshold_tau game ~subsidies i in
        let expected = Float.min tau q in
        worst := Float.max !worst (Float.abs (subsidies.(i) -. expected)))
    classes;
  !worst

let multistart_spread ?(starts = 5) rng game =
  let br_game = Subsidy_game.to_game game in
  let outcomes =
    Gametheory.Best_response.solve_multistart ~starts rng br_game
    |> List.filter (fun o -> o.Gametheory.Best_response.converged)
  in
  match outcomes with
  | [] -> Float.infinity
  | first :: rest ->
    List.fold_left
      (fun acc o ->
        Float.max acc
          (Vec.dist_inf first.Gametheory.Best_response.profile
             o.Gametheory.Best_response.profile))
      0. rest

let off_diagonal_monotone game ~subsidies =
  let j = Rank2.to_mat (Subsidy_game.marginal_jacobian_exact game ~subsidies) in
  Gametheory.Matrix_props.is_off_diagonally_nonnegative ~tol:1e-8 j

let jacobian_is_p_matrix game ~subsidies =
  let j = Rank2.to_mat (Subsidy_game.marginal_jacobian_exact game ~subsidies) in
  Gametheory.Matrix_props.is_p_matrix ~tol:0. (Mat.scale (-1.) j)
