(** Regulatory policy analysis (Section 5).

    The decision chain is: the regulator fixes the subsidy cap [q], the
    ISP picks its price [p(q)], and the CPs settle at the Nash
    equilibrium [s(p, q)]. This module sweeps that chain. *)

type point = {
  cap : float;  (** the policy [q] *)
  price : float;
  equilibrium : Nash.equilibrium;
  revenue : float;  (** ISP revenue [p * theta] *)
  welfare : float;  (** [sum_i v_i theta_i] *)
  utilization : float;
}

val nash_at : System.t -> price:float -> cap:float -> Nash.equilibrium
(** Convenience constructor + solve. *)

val point_at : System.t -> price:float -> cap:float -> point

val price_sweep :
  ?pool:Parallel.Pool.t ->
  ?chunk:int ->
  System.t ->
  cap:float ->
  prices:float array ->
  point array
(** Equilibria along a price grid under a fixed policy, warm-started
    left to right (the Figure 7-11 inner loop). With [pool], the grid
    is evaluated in chunks of [chunk] (default 8) prices; each chunk
    is its own warm-start chain starting cold, so chunk boundaries —
    and therefore the solved bits — depend only on [chunk], never on
    the pool size. *)

val policy_sweep :
  ?pool:Parallel.Pool.t ->
  ?chunk:int ->
  System.t ->
  caps:float array ->
  prices:float array ->
  point array array
(** [policy_sweep sys ~caps ~prices] is one [price_sweep] per cap
    level (row-per-cap; the full Figure 7-11 grid). With [pool], the
    whole [(cap, price-chunk)] grid is submitted as one flat batch —
    cell results are identical to the per-row [price_sweep ~pool]
    ones. *)

val optimal_price :
  ?p_max:float ->
  ?points:int ->
  ?track:Numerics.Continuation.track ->
  System.t ->
  cap:float ->
  point
(** The ISP's revenue-maximizing response [p*(q)] and the resulting
    market point, built from the equilibrium the search solved at
    [p*]. [track] carries the price search's continuation warm
    state across calls (see {!Revenue.optimal_price}). *)

val deregulation_ladder :
  System.t -> price:float -> caps:float array -> point array
(** Fixed-price policy relaxation: the Corollary-1 experiment. Under
    the stability condition, revenue, welfare and utilization are
    nondecreasing along the ladder. *)

val price_response_slope : ?h:float -> System.t -> cap:float -> ?p_max:float -> unit -> float
(** Numeric [dp*/dq]: how much the ISP raises its optimal price when
    the policy is relaxed; feeds Theorem 8's [dp_dq]. *)
