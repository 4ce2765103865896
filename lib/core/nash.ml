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

let kkt_residual game ~subsidies =
  let u = Subsidy_game.marginal_utilities game ~subsidies in
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

let solve ?scheme ?damping ?tol ?max_sweeps ?respond_points ?fused ?x0 game =
  Obs.Trace.with_span "nash.solve" @@ fun () ->
  let br_game = Subsidy_game.to_game ?respond_points ?fused game in
  let x0 = match x0 with Some x -> x | None -> Vec.zeros (Subsidy_game.dim game) in
  let outcome = Gametheory.Best_response.solve ?scheme ?damping ?tol ?max_sweeps br_game ~x0 in
  let subsidies = outcome.Gametheory.Best_response.profile in
  let state = Subsidy_game.state game ~subsidies in
  if Obs.Trace.enabled () then begin
    Obs.Trace.add_attr "sweeps" (string_of_int outcome.Gametheory.Best_response.sweeps);
    Obs.Trace.add_attr "converged"
      (string_of_bool outcome.Gametheory.Best_response.converged)
  end;
  {
    subsidies;
    state;
    utilities = Subsidy_game.utilities game ~subsidies;
    classes = classify game ~subsidies;
    sweeps = outcome.Gametheory.Best_response.sweeps;
    converged = outcome.Gametheory.Best_response.converged;
    kkt_residual = kkt_residual game ~subsidies;
  }

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
  let state = Subsidy_game.state game ~subsidies in
  {
    subsidies;
    state;
    utilities = Subsidy_game.utilities game ~subsidies;
    classes = classify game ~subsidies;
    sweeps = r.Gametheory.Vi.iterations;
    converged = r.Gametheory.Vi.converged;
    kkt_residual = kkt_residual game ~subsidies;
  }

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
  let j = Subsidy_game.marginal_jacobian_exact game ~subsidies in
  Gametheory.Matrix_props.is_off_diagonally_nonnegative ~tol:1e-8 j

let jacobian_is_p_matrix game ~subsidies =
  let j = Subsidy_game.marginal_jacobian_exact game ~subsidies in
  Gametheory.Matrix_props.is_p_matrix ~tol:0. (Mat.scale (-1.) j)
