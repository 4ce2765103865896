type point = {
  cap : float;
  price : float;
  equilibrium : Nash.equilibrium;
  revenue : float;
  welfare : float;
  utilization : float;
}

let nash_at sys ~price ~cap = Nash.solve (Subsidy_game.make sys ~price ~cap)

let point_of_equilibrium sys ~price ~cap (eq : Nash.equilibrium) =
  {
    cap;
    price;
    equilibrium = eq;
    revenue = price *. eq.Nash.state.System.aggregate;
    welfare = Welfare.of_state sys eq.Nash.state;
    utilization = eq.Nash.state.System.phi;
  }

let point_at sys ~price ~cap =
  point_of_equilibrium sys ~price ~cap (nash_at sys ~price ~cap)

(* one grid cell: Nash at (price, cap) predicted from the previous
   cells on the chunk's continuation track (secant through the last
   two equilibria) *)
let sweep_step sys ~cap track price =
  let solve () =
    let eq = Nash.solve_cell track ~at:price (Subsidy_game.make sys ~price ~cap) in
    (point_of_equilibrium sys ~price ~cap eq, track)
  in
  if Obs.Trace.enabled () then
    Obs.Trace.with_span "price.point"
      ~attrs:[ ("price", Printf.sprintf "%g" price); ("cap", Printf.sprintf "%g" cap) ]
      solve
  else solve ()

(* fixed: chunk boundaries must not move with the domain count, or the
   warm-start chains (hence the solved bits) would *)
let default_chunk = 8

let price_sweep ?pool ?(chunk = default_chunk) sys ~cap ~prices =
  match pool with
  | None ->
    Parallel.Pool.fold_map
      ~init:(Numerics.Continuation.track ())
      ~step:(sweep_step sys ~cap) prices
  | Some pool ->
    Parallel.Pool.map_chunked pool ~chunk
      ~init:(fun _ -> Numerics.Continuation.track ())
      ~step:(sweep_step sys ~cap) prices

let policy_sweep ?pool ?(chunk = default_chunk) sys ~caps ~prices =
  match pool with
  | None -> Array.map (fun cap -> price_sweep ~chunk sys ~cap ~prices) caps
  | Some pool ->
    (* flatten (cap x price-chunk) into a single batch so a narrow
       price grid still feeds every domain; each task is one warm-start
       chain, identical to the chunk it would be under [price_sweep] *)
    let rs = Parallel.Pool.ranges ~n:(Array.length prices) ~chunk in
    let nr = Array.length rs in
    let slots = Array.make (Array.length caps * nr) [||] in
    let fns =
      Array.init (Array.length caps * nr) (fun t ->
          let cap = caps.(t / nr) in
          let lo, hi = rs.(t mod nr) in
          fun () ->
            slots.(t) <-
              Parallel.Pool.fold_map
                ~init:(Numerics.Continuation.track ())
                ~step:(sweep_step sys ~cap)
                (Array.sub prices lo (hi - lo)))
    in
    Parallel.Pool.run_tasks pool fns;
    Array.init (Array.length caps) (fun qi ->
        Array.concat (Array.to_list (Array.sub slots (qi * nr) nr)))

let optimal_price ?(p_max = 3.) ?(points = 49) ?track sys ~cap =
  let game = Subsidy_game.make sys ~price:0. ~cap in
  let price, eq, _ = Revenue.optimal_price ~p_max ~points ?track game in
  point_of_equilibrium sys ~price ~cap eq

let deregulation_ladder sys ~price ~caps =
  Parallel.Pool.fold_map
    ~init:(Numerics.Continuation.track ())
    ~step:(fun track cap ->
      let eq = Nash.solve_cell track ~at:cap (Subsidy_game.make sys ~price ~cap) in
      (point_of_equilibrium sys ~price ~cap eq, track))
    caps

let price_response_slope ?(h = 1e-3) sys ~cap ?p_max () =
  let p_at cap =
    let point = optimal_price ?p_max sys ~cap in
    point.price
  in
  if cap -. h < 0. then (p_at (cap +. h) -. p_at cap) /. h
  else (p_at (cap +. h) -. p_at (cap -. h)) /. (2. *. h)
