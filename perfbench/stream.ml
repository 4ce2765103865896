(* The seeded request stream of the serve workloads: fresh
   Loadgen.random_market markets (1-4 CPs), exact repeats drawn from a
   window of recent markets, and neighbours — a recent market's CP
   population with price, cap and capacity nudged by up to 5%.

   Open-loop arrivals are Poisson, from their own Rng stream, so the
   market sequence is the same whatever the rate, and the same again
   when a closed loop draws it with [next]. The in-process replays walk
   the very requests the daemon was sent. *)

type kind = Fresh | Repeat | Neighbour

type mix = { repeat : float; neighbour : float; window : int }

type item = {
  seq : int;
  id : string;
  kind : kind;
  market : Service.Proto.market;
  fp : string;  (** Service.Cache.fingerprint *)
  line : string;  (** the wire frame, without its newline *)
}

type t = {
  mix : mix;
  markets : Numerics.Rng.t;
  arrivals : Numerics.Rng.t;
  recent : Service.Proto.market array;  (** ring of the last [window] markets *)
  mutable inserted : int;
  mutable next : int;
}

let create ~seed mix =
  let root = Numerics.Rng.create (Int64.of_int seed) in
  let markets = Numerics.Rng.split root in
  let arrivals = Numerics.Rng.split root in
  let blank = { Service.Proto.capacity = 1.; price = 0.; cap = 0.; cps = [||] } in
  { mix; markets; arrivals; recent = Array.make (max 1 mix.window) blank; inserted = 0; next = 0 }

let nudge rng x = x *. Numerics.Rng.uniform rng ~lo:0.95 ~hi:1.05

let neighbour rng (m : Service.Proto.market) =
  {
    m with
    Service.Proto.price = Float.max 0.01 (nudge rng m.Service.Proto.price);
    cap = Float.max 0.01 (nudge rng m.Service.Proto.cap);
    capacity = Float.max 0.1 (nudge rng m.Service.Proto.capacity);
  }

let next t =
  let rng = t.markets in
  let u = Numerics.Rng.float rng in
  let filled = min (Array.length t.recent) t.inserted in
  let pick () = t.recent.(Numerics.Rng.int rng filled) in
  let kind, market =
    if filled > 0 && u < t.mix.repeat then (Repeat, pick ())
    else if filled > 0 && u < t.mix.repeat +. t.mix.neighbour then (Neighbour, neighbour rng (pick ()))
    else (Fresh, Service.Loadgen.random_market rng)
  in
  if kind <> Repeat then begin
    t.recent.(t.inserted mod Array.length t.recent) <- market;
    t.inserted <- t.inserted + 1
  end;
  let seq = t.next in
  t.next <- seq + 1;
  let id = "r" ^ string_of_int seq in
  let line =
    Service.Proto.request_to_line
      (Service.Proto.Solve { id; market; params = Service.Proto.no_params })
  in
  { seq; id; kind; market; fp = Service.Cache.fingerprint market; line }

(* The requests due in [0, duration) at [rate] per second, with their
   due offsets. *)
let schedule t ~rate ~duration =
  let rec go at acc =
    let at = at +. Numerics.Rng.exponential t.arrivals ~rate in
    if at >= duration then Array.of_list (List.rev acc) else go at ((at, next t) :: acc)
  in
  go 0. []
