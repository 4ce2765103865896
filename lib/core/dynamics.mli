(** Off-equilibrium adjustment dynamics of the subsidization game.

    The paper's equilibrium concept is static; this module provides the
    two standard adjustment processes whose rest points are the Nash
    equilibria, so the "dynamics of subsidies" (Section 4.2) can be
    simulated rather than assumed:

    - discrete best-response tatonnement: Gauss-Seidel
      {!Gametheory.Best_response.solve}, whose [moves] are the trace;
    - continuous projected gradient flow [ds_i/dt = u_i(s)]. *)

type report = {
  best_response : Gametheory.Best_response.outcome;
  gradient : Gametheory.Gradient_dynamics.result;
  agree : bool;
      (** both processes settle, at the same profile (sup-norm 1e-5) *)
}

val best_response_trace :
  Subsidy_game.t -> x0:Numerics.Vec.t -> Gametheory.Best_response.outcome
(** The same run as {!Nash.solve} from [x0]: it ends at the same
    profile, bit for bit. *)

val gradient_flow :
  ?horizon:float ->
  ?dt:float ->
  Subsidy_game.t ->
  x0:Numerics.Vec.t ->
  Gametheory.Gradient_dynamics.result
(** Defaults: [horizon = 600], [dt = 0.25] — the flow's time
    constant near equilibrium is large because marginal utilities are
    small there. *)

val compare : ?x0:Numerics.Vec.t -> Subsidy_game.t -> report
(** Run both processes from [x0] (default: zero subsidies) and check
    that they agree with each other. *)
