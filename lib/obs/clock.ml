(* monotonicity clamp shared by every domain: a CAS max so two domains
   reading the wall clock concurrently can never observe time moving
   backwards through [now] *)
let last = Atomic.make 0.

let rec now () =
  let t = Unix.gettimeofday () in
  let seen = Atomic.get last in
  if t > seen then if Atomic.compare_and_set last seen t then t else now ()
  else seen

let elapsed ~since = Float.max 0. (now () -. since)

let us_of_s s = s *. 1e6
