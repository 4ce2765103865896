type spec =
  | Exponential of { m0 : float; alpha : float }
  | Isoelastic of { m0 : float; alpha : float; scale : float }
  | Logit of { m0 : float; slope : float; midpoint : float }

type t = { spec : spec }

let positive name x =
  if x <= 0. || not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Demand: %s must be positive and finite, got %g" name x)

(* The single source of truth for every family: one kernel over the
   scalar field, evaluated in dual numbers for exact derivatives and
   matched bit for bit by the float code below. Branches are on the
   primal. *)
module Kernel (F : Numerics.Field.S) = struct
  open F

  (* softplus with a numerically safe large-x branch *)
  let softplus x = if Stdlib.( > ) (primal x) 30. then x else log1p (exp x)

  let sigmoid x =
    if Stdlib.( > ) (primal x) 0. then const 1. / (const 1. + exp (neg x))
    else exp x / (const 1. + exp x)

  let population spec t =
    match spec with
    | Exponential { m0; alpha } -> const m0 * exp (neg (const alpha) * t)
    | Isoelastic { m0; alpha; scale } ->
      const m0 * pow_f (const 1. + softplus (t / const scale)) (-.alpha)
    | Logit { m0; slope; midpoint } ->
      const m0 * (const 1. - sigmoid (const slope * (t - const midpoint)))

  let slope spec t =
    match spec with
    | Exponential { m0; alpha } ->
      neg (const alpha) * const m0 * exp (neg (const alpha) * t)
    | Isoelastic { m0; alpha; scale } ->
      let u = const 1. + softplus (t / const scale) in
      neg (const alpha) * const m0 * pow_f u (-.alpha -. 1.)
      * sigmoid (t / const scale)
      / const scale
    | Logit { m0; slope; midpoint } ->
      let s = sigmoid (const slope * (t - const midpoint)) in
      neg (const m0) * const slope * s * (const 1. - s)
end

module K_dual = Kernel (Numerics.Dual)
module K_dual2 = Kernel (Numerics.Dual.Order2)

let validate = function
  | Exponential { m0; alpha } ->
    positive "m0" m0;
    positive "alpha" alpha
  | Isoelastic { m0; alpha; scale } ->
    positive "m0" m0;
    positive "alpha" alpha;
    positive "scale" scale
  | Logit { m0; slope; midpoint } ->
    positive "m0" m0;
    positive "slope" slope;
    if not (Float.is_finite midpoint) then invalid_arg "Demand: midpoint must be finite"

let make spec =
  validate spec;
  { spec }

let spec d = d.spec

let exponential ?(m0 = 1.) ~alpha () = make (Exponential { m0; alpha })
let isoelastic ?(m0 = 1.) ?(scale = 1.) ~alpha () = make (Isoelastic { m0; alpha; scale })
let logit ?(m0 = 1.) ?(midpoint = 1.) ~slope () = make (Logit { m0; slope; midpoint })

(* The float kernels, per family, without the functor's closure calls
   (not inlined without flambda): [Kernel]'s operations in its order,
   branches included, so every value is bit-identical to
   [Kernel (Field.Float_s)]. *)
let softplus x = if x > 30. then x else log1p (exp x)

let sigmoid x = if x > 0. then 1. /. (1. +. exp (-.x)) else exp x /. (1. +. exp x)

let population d t =
  match d.spec with
  | Exponential { m0; alpha } -> m0 *. exp (-.alpha *. t)
  | Isoelastic { m0; alpha; scale } -> m0 *. Float.pow (1. +. softplus (t /. scale)) (-.alpha)
  | Logit { m0; slope; midpoint } -> m0 *. (1. -. sigmoid (slope *. (t -. midpoint)))

let derivative d t =
  match d.spec with
  | Exponential { m0; alpha } -> -.alpha *. m0 *. exp (-.alpha *. t)
  | Isoelastic { m0; alpha; scale } ->
    let u = 1. +. softplus (t /. scale) in
    -.alpha *. m0 *. Float.pow u (-.alpha -. 1.) *. sigmoid (t /. scale) /. scale
  | Logit { m0; slope; midpoint } ->
    let s = sigmoid (slope *. (t -. midpoint)) in
    -.m0 *. slope *. s *. (1. -. s)

let population_d d t = K_dual.population d.spec t
let slope_d d t = K_dual.slope d.spec t
let population_d2 d t = K_dual2.population d.spec t

let elasticity d t =
  let m = population d t in
  if
    (m = 0.
    [@sublint.allow "NO-FLOAT-EQ"
        "exact division guard: the elasticity below divides by m; only an \
         exactly-zero population is undefined"])
  then invalid_arg "Demand.elasticity: zero population";
  derivative d t *. t /. m

let scale_population d ~kappa =
  positive "kappa" kappa;
  let spec =
    match d.spec with
    | Exponential e -> Exponential { e with m0 = e.m0 /. kappa }
    | Isoelastic e -> Isoelastic { e with m0 = e.m0 /. kappa }
    | Logit e -> Logit { e with m0 = e.m0 /. kappa }
  in
  make spec

let label d =
  match d.spec with
  | Exponential { m0; alpha } -> Printf.sprintf "exp(m0=%g, alpha=%g)" m0 alpha
  | Isoelastic { m0; alpha; scale } ->
    Printf.sprintf "iso(m0=%g, alpha=%g, scale=%g)" m0 alpha scale
  | Logit { m0; slope; midpoint } ->
    Printf.sprintf "logit(m0=%g, slope=%g, mid=%g)" m0 slope midpoint
