open Numerics

let at_equilibrium game (eq : Nash.equilibrium) =
  Subsidy_game.price game *. eq.Nash.state.System.aggregate

let upsilon game ~subsidies =
  let st = Subsidy_game.state game ~subsidies in
  let sys = Subsidy_game.system game in
  let acc = ref 1. in
  Array.iteri
    (fun j cp ->
      acc :=
        !acc
        +. st.System.populations.(j)
           *. Econ.Throughput.derivative cp.Econ.Cp.throughput st.System.phi
           /. st.System.gap_slope)
    sys.System.cps;
  !acc

let price_elasticities game ~subsidies =
  let p = Subsidy_game.price game in
  if p <= 0. then invalid_arg "Revenue.price_elasticities: requires p > 0";
  let st = Subsidy_game.state game ~subsidies in
  let sys = Subsidy_game.system game in
  let dsdp = Sensitivity.ds_dp game ~subsidies in
  Vec.init (Subsidy_game.dim game) (fun i ->
      let cp = sys.System.cps.(i) in
      p /. st.System.populations.(i)
      *. Econ.Demand.derivative cp.Econ.Cp.demand st.System.charges.(i)
      *. (1. -. dsdp.(i)))

let marginal_formula game ~subsidies =
  let st = Subsidy_game.state game ~subsidies in
  let eps = price_elasticities game ~subsidies in
  let ups = upsilon game ~subsidies in
  st.System.aggregate +. (ups *. Vec.dot eps st.System.throughputs)

let marginal_numeric ?(h = 1e-5) game =
  let p = Subsidy_game.price game in
  let revenue_at price =
    let g = Subsidy_game.with_price game price in
    let eq = Nash.solve g in
    at_equilibrium g eq
  in
  if p -. h < 0. then (revenue_at (p +. h) -. revenue_at p) /. h
  else (revenue_at (p +. h) -. revenue_at (p -. h)) /. (2. *. h)

(* one price cell of a revenue scan, driven through the continuation
   track: subsidies secant-predicted from the previous cells *)
let equilibrium_cell track game p =
  let g = Subsidy_game.with_price game p in
  let eq =
    Continuation.solve_cell track ~at:p
      ~clamp:(Vec.clamp ~lo:0. ~hi:(Subsidy_game.cap game))
      ~solve:(fun x0 -> Nash.solve ?x0 g)
      ~extract:(fun (eq : Nash.equilibrium) -> (eq.Nash.subsidies, eq.Nash.converged))
      ()
  in
  (g, eq)

let curve game ~prices =
  let track = Continuation.track () in
  Array.map
    (fun p ->
      let g, eq = equilibrium_cell track game p in
      (p, eq, at_equilibrium g eq))
    prices

let optimal_price ?(p_max = 3.) ?(points = 49) ?track game =
  if p_max <= 0. then invalid_arg "Revenue.optimal_price: p_max must be positive";
  (* the search visits nearby prices, whose equilibria are close: walk
     them on a continuation track (callers optimizing over an outer
     axis, e.g. capacity, pass their own so it survives across calls) *)
  let track = match track with Some t -> t | None -> Continuation.track () in
  let revenue_at p =
    let g, eq = equilibrium_cell track game p in
    at_equilibrium g eq
  in
  let r = Optimize.grid_then_golden ~points ~tol:1e-5 revenue_at ~lo:0. ~hi:p_max in
  (r.Optimize.x, r.Optimize.fx)
