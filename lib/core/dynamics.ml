open Numerics

type report = {
  best_response : Gametheory.Best_response.outcome;
  gradient : Gametheory.Gradient_dynamics.result;
  agree : bool;
}

let best_response_trace game ~x0 =
  Gametheory.Best_response.solve (Subsidy_game.to_game game) ~x0

let gradient_flow ?(horizon = 600.) ?(dt = 0.25) game ~x0 =
  Gametheory.Gradient_dynamics.flow
    ~marginal:(fun s -> Subsidy_game.marginal_utilities game ~subsidies:s)
    ~box:(Subsidy_game.box game) ~horizon ~dt ~x0 ()

let compare ?x0 game =
  let x0 = match x0 with Some x -> x | None -> Vec.zeros (Subsidy_game.dim game) in
  let best_response = best_response_trace game ~x0 in
  let gradient = gradient_flow game ~x0 in
  let agree =
    best_response.Gametheory.Best_response.converged
    && gradient.Gametheory.Gradient_dynamics.stationary
    && Vec.dist_inf best_response.Gametheory.Best_response.profile
         gradient.Gametheory.Gradient_dynamics.final
       <= 1e-5
  in
  { best_response; gradient; agree }
