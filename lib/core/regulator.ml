type regime = {
  cap : float;
  price_cap : float option;
  price : float;
  revenue : float;
  welfare : float;
  utilization : float;
}

let isp_price ?(p_max = 2.5) sys ~cap ~price_cap =
  let ceiling = match price_cap with Some c -> Float.min c p_max | None -> p_max in
  if ceiling <= 0. then 0.
  else begin
    let game = Subsidy_game.make sys ~price:0. ~cap in
    let p_star, _, _ = Revenue.optimal_price ~p_max:ceiling game in
    p_star
  end

let evaluate ?p_max sys ~cap ~price_cap =
  let price = isp_price ?p_max sys ~cap ~price_cap in
  let point = Policy.point_at sys ~price ~cap in
  {
    cap;
    price_cap;
    price;
    revenue = point.Policy.revenue;
    welfare = point.Policy.welfare;
    utilization = point.Policy.utilization;
  }

let best_by_welfare regimes =
  match regimes with
  | [] -> invalid_arg "Regulator: no candidate regimes"
  | first :: rest ->
    List.fold_left (fun best r -> if r.welfare > best.welfare then r else best) first rest

let optimal_policy ?p_max ?caps sys ~price_cap =
  let caps = match caps with Some c -> c | None -> Scenario.q_levels () in
  best_by_welfare
    (Array.to_list (Array.map (fun cap -> evaluate ?p_max sys ~cap ~price_cap) caps))

let optimal_policy_with_price_cap ?p_max ?caps ?price_caps sys =
  let caps = match caps with Some c -> c | None -> Scenario.q_levels () in
  let price_caps =
    match price_caps with Some c -> c | None -> [| 0.2; 0.4; 0.6; 0.8; 1.2; 1.6 |]
  in
  let candidates =
    List.concat_map
      (fun cap ->
        evaluate ?p_max sys ~cap ~price_cap:None
        :: Array.to_list
             (Array.map
                (fun ceiling -> evaluate ?p_max sys ~cap ~price_cap:(Some ceiling))
                price_caps))
      (Array.to_list caps)
  in
  best_by_welfare candidates
