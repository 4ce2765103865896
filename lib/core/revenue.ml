open Numerics

let at_equilibrium game (eq : Nash.equilibrium) =
  Subsidy_game.price game *. eq.Nash.state.System.aggregate

let upsilon_of game (st : System.state) =
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

let upsilon game ~subsidies = upsilon_of game (Subsidy_game.state game ~subsidies)

let elasticities_of game (st : System.state) ~subsidies =
  let p = Subsidy_game.price game in
  if p <= 0. then invalid_arg "Revenue.price_elasticities: requires p > 0";
  let sys = Subsidy_game.system game in
  let dsdp = Sensitivity.ds_dp ~state:st game ~subsidies in
  Vec.init (Subsidy_game.dim game) (fun i ->
      let cp = sys.System.cps.(i) in
      p /. st.System.populations.(i)
      *. Econ.Demand.derivative cp.Econ.Cp.demand st.System.charges.(i)
      *. (1. -. dsdp.(i)))

let price_elasticities game ~subsidies =
  elasticities_of game (Subsidy_game.state game ~subsidies) ~subsidies

let marginal_of game (st : System.state) ~subsidies =
  let eps = elasticities_of game st ~subsidies in
  st.System.aggregate +. (upsilon_of game st *. Vec.dot eps st.System.throughputs)

let marginal_formula game ~subsidies =
  marginal_of game (Subsidy_game.state game ~subsidies) ~subsidies

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
  (g, Nash.solve_cell track ~at:p g)

let curve game ~prices =
  let track = Continuation.track () in
  Array.map
    (fun p ->
      let g, eq = equilibrium_cell track game p in
      (p, eq, at_equilibrium g eq))
    prices

type cell = { game : Subsidy_game.t; eq : Nash.equilibrium; revenue : float }

let optimal_price ?(p_max = 3.) ?(points = 49) ?track game =
  if p_max <= 0. then invalid_arg "Revenue.optimal_price: p_max must be positive";
  Precondition.require ~fn:"Revenue.optimal_price" (points >= 3) "need at least 3 points";
  (* the search visits nearby prices, whose equilibria are close: walk
     them on a continuation track (callers optimizing over an outer
     axis, e.g. capacity, pass their own so it survives across calls) *)
  let track = match track with Some t -> t | None -> Continuation.track () in
  (* every solved cell, so the answer carries its own equilibrium and
     a bracket end's dR/dp is read off the cell already solved there *)
  let cells = Hashtbl.create 64 in
  let cell_at p =
    match Hashtbl.find_opt cells p with
    | Some c -> c
    | None ->
      let g, eq = equilibrium_cell track game p in
      let c = { game = g; eq; revenue = at_equilibrium g eq } in
      Hashtbl.add cells p c;
      c
  in
  (* Theorem 7 from the cell's own state; at p = 0 the elasticity
     terms vanish and dR/dp = theta *)
  let slope p =
    let c = cell_at p in
    if p <= 0. then c.eq.Nash.state.System.aggregate
    else marginal_of c.game c.eq.Nash.state ~subsidies:c.eq.Nash.subsidies
  in
  let revenue p = (cell_at p).revenue in
  let grid = Array.init points (fun i -> p_max *. float_of_int i /. float_of_int (points - 1)) in
  let values = Array.map revenue grid in
  let k = ref 0 in
  Array.iteri (fun i v -> if v > values.(!k) then k := i) values;
  let lo = grid.(Stdlib.max 0 (!k - 1)) and hi = grid.(Stdlib.min (points - 1) (!k + 1)) in
  (* the first-order condition dR/dp = 0 inside the bracket when it
     changes sign there; golden search on R where it does not (e.g. an
     argmax at an end of the grid) *)
  let refined =
    if slope lo > 0. && slope hi < 0. then
      (Rootfind.brent ~tol:1e-8 slope ~lo ~hi).Rootfind.root
    else (Optimize.golden_section ~tol:1e-5 revenue ~lo ~hi).Optimize.x
  in
  let best = if revenue refined >= values.(!k) then refined else grid.(!k) in
  let c = cell_at best in
  (best, c.eq, c.revenue)
