type config = {
  retry : Runner.Supervisor.retry;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  timeout_s : float;
  deadline_s : float option;
  seed : int64;
}

let default_config =
  {
    retry =
      Runner.Supervisor.retry ~max_attempts:2 ~backoff_s:0.025 ~multiplier:2.
        ~jitter:0.5 ();
    breaker_threshold = 3;
    breaker_cooldown_s = 0.5;
    timeout_s = 10.;
    deadline_s = None;
    seed = 11L;
  }

type error =
  | Transport of Client.error
  | Shed of { depth : int; capacity : int }
  | Rejected of Proto.reject_reason
  | Degraded of string
  | No_shard_available

let error_to_string = function
  | Transport e -> Client.error_to_string e
  | Shed { depth; capacity } ->
    Printf.sprintf "shed on every live shard (queue %d/%d)" depth capacity
  | Rejected reason -> "rejected: " ^ Proto.reject_to_string reason
  | Degraded reason -> "degraded: " ^ reason
  | No_shard_available -> "no shard available (every breaker open)"

type breaker = Closed | Open of { since : float } | Half_open

let breaker_name = function
  | Closed -> "closed"
  | Open _ -> "open"
  | Half_open -> "half-open"

let breaker_rank = function Closed -> 0. | Half_open -> 1. | Open _ -> 2.

type member = {
  shard : Shard.shard;
  mutable client : Client.t option;
  mutable breaker : breaker;
  mutable consecutive : int;
  mutable requests : int;
  mutable failures : int;
  mutable trips : int;
  state_g : Obs.Metrics.gauge;
  trips_c : Obs.Metrics.counter;
  requests_c : Obs.Metrics.counter;
}

type t = {
  cfg : config;
  ring : Shard.t;
  members : (string * member) list;  (* keyed by shard name *)
  netfault : Netfault.t option;
  rng : Numerics.Rng.t;  (* backoff jitter *)
  mutable serial : int;  (* generated request ids *)
  mutable failovers : int;
  mutable retries : int;
  failovers_c : Obs.Metrics.counter;
  retries_c : Obs.Metrics.counter;
}

let create ?netfault ?(config = default_config) ring =
  let member (s : Shard.shard) =
    ( s.Shard.name,
      {
        shard = s;
        client = None;
        breaker = Closed;
        consecutive = 0;
        requests = 0;
        failures = 0;
        trips = 0;
        state_g =
          Obs.Metrics.gauge
            ~labels:[ ("shard", s.Shard.name) ]
            "service.pool.breaker.state";
        trips_c =
          Obs.Metrics.counter
            ~labels:[ ("shard", s.Shard.name) ]
            "service.pool.breaker.trips";
        requests_c =
          Obs.Metrics.counter
            ~labels:[ ("shard", s.Shard.name) ]
            "service.pool.requests";
      } )
  in
  {
    cfg = config;
    ring;
    members = List.map member (Shard.shards ring);
    netfault;
    rng = Numerics.Rng.create config.seed;
    serial = 0;
    failovers = 0;
    retries = 0;
    failovers_c = Obs.Metrics.counter "service.pool.failovers";
    retries_c = Obs.Metrics.counter "service.pool.retries";
  }

let member_of t (s : Shard.shard) = List.assoc s.Shard.name t.members

let set_breaker m b =
  m.breaker <- b;
  Obs.Metrics.set m.state_g (breaker_rank b)

let drop_client m =
  (match m.client with Some c -> Client.close c | None -> ());
  m.client <- None

(* Breaker admission; an open breaker past its cooldown transitions to
   half-open and admits the caller as the recovery probe. *)
let admits t m =
  match m.breaker with
  | Closed | Half_open -> true
  | Open { since } ->
    if Obs.Clock.elapsed ~since >= t.cfg.breaker_cooldown_s then begin
      set_breaker m Half_open;
      true
    end
    else false

let record_failure t m =
  m.failures <- m.failures + 1;
  m.consecutive <- m.consecutive + 1;
  Shard.mark_failed m.shard;
  drop_client m;
  let trip () =
    m.trips <- m.trips + 1;
    Obs.Metrics.incr m.trips_c;
    set_breaker m (Open { since = Obs.Clock.now () })
  in
  match m.breaker with
  | Half_open -> trip ()  (* the probe failed: back to open, new cooldown *)
  | Closed when m.consecutive >= t.cfg.breaker_threshold -> trip ()
  | Closed | Open _ -> ()

let record_success m =
  m.consecutive <- 0;
  Shard.mark_ok m.shard;
  match m.breaker with Closed -> () | Half_open | Open _ -> set_breaker m Closed

let get_client t m =
  match m.client with
  | Some c when Client.is_alive c -> Ok c
  | Some _ | None ->
    drop_client m;
    (match Client.connect ?netfault:t.netfault m.shard.Shard.address with
    | Ok c ->
      m.client <- Some c;
      Ok c
    | Error _ as e -> e)

(* One send + read on one shard. Any transport failure kills the
   connection: a response abandoned by a timed-out attempt must never
   be read as the answer to a later request. *)
let attempt t m request =
  match get_client t m with
  | Error e -> `Transport e
  | Ok c -> (
    match Client.call ~timeout_s:t.cfg.timeout_s c request with
    | Error e ->
      drop_client m;
      `Transport e
    | Ok (Proto.Solved { result; _ }) -> `Answer result
    | Ok (Proto.Degraded { reason; _ }) -> `Degraded reason
    | Ok (Proto.Shed { depth; capacity; _ }) -> `Shed (depth, capacity)
    | Ok (Proto.Rejected { reason; _ }) -> `Rejected reason
    | Ok
        ( Proto.Metrics_snapshot _ | Proto.Prom_text _ | Proto.Chaos_ack _
        | Proto.Pong | Proto.Bye ) ->
      drop_client m;
      `Transport (Client.Torn_frame "unexpected response frame to solve"))

type answer = {
  solved : Proto.solved;
  shard : string;
  attempts : int;
  failovers : int;
}

let solve t ?id ?(params = Proto.no_params) market =
  let id =
    match id with
    | Some id -> id
    | None ->
      t.serial <- t.serial + 1;
      Printf.sprintf "pool-%d" t.serial
  in
  let request = Proto.Solve { id; market; params } in
  let key = Cache.fingerprint market in
  let prefs = Shard.route t.ring ~key in
  let started = Obs.Clock.now () in
  let deadline_left () =
    match t.cfg.deadline_s with
    | None -> infinity
    | Some d -> d -. Obs.Clock.elapsed ~since:started
  in
  let attempts = ref 0 in
  let failovers = ref 0 in
  let tried = ref false in
  let rec shard_loop last_err = function
    | [] ->
      Error
        (match last_err with
        | Some e -> e
        | None -> if !tried then Transport Client.Conn_closed else No_shard_available)
    | shard :: rest ->
      let m = member_of t shard in
      if not (admits t m) then shard_loop last_err rest
      else begin
        tried := true;
        attempt_loop m 1 rest
      end
  and attempt_loop m attempt_no rest =
    if deadline_left () <= 0. then
      Error
        (Transport
           (Client.Timeout { waited_s = Obs.Clock.elapsed ~since:started }))
    else begin
      incr attempts;
      match attempt t m request with
      | `Answer solved ->
        record_success m;
        m.requests <- m.requests + 1;
        Obs.Metrics.incr m.requests_c;
        Ok
          {
            solved;
            shard = m.shard.Shard.name;
            attempts = !attempts;
            failovers = !failovers;
          }
      | `Degraded reason ->
        (* the shard answered: it is healthy, the request is not *)
        record_success m;
        Error (Degraded reason)
      | `Rejected reason ->
        record_success m;
        Error (Rejected reason)
      | `Shed (depth, capacity) ->
        (* alive but overloaded: no breaker charge, try a replica *)
        record_success m;
        fail_over (Some (Shed { depth; capacity })) rest
      | `Transport e ->
        record_failure t m;
        let last_err = Some (Transport e) in
        if
          attempt_no < t.cfg.retry.Runner.Supervisor.max_attempts
          && admits t m
        then begin
          t.retries <- t.retries + 1;
          Obs.Metrics.incr t.retries_c;
          Unix.sleepf
            (Float.min (Float.max 0. (deadline_left ()))
               (Runner.Supervisor.backoff_delay ~rng:t.rng t.cfg.retry
                  ~attempt:attempt_no));
          attempt_loop m (attempt_no + 1) rest
        end
        else fail_over last_err rest
    end
  and fail_over last_err rest =
    if rest <> [] then begin
      incr failovers;
      t.failovers <- t.failovers + 1;
      Obs.Metrics.incr t.failovers_c
    end;
    shard_loop last_err rest
  in
  shard_loop None prefs

let probe t =
  List.iter
    (fun (_, m) ->
      let quiet =
        (match m.breaker with Closed -> true | Half_open | Open _ -> false)
        && m.shard.Shard.health = Shard.Up
      in
      if (not quiet) && admits t m then begin
        match get_client t m with
        | Error _ -> record_failure t m
        | Ok c -> (
          match Client.call ~timeout_s:2. c Proto.Ping with
          | Ok Proto.Pong -> record_success m
          | Ok _ | Error _ ->
            drop_client m;
            record_failure t m)
      end)
    t.members

let close t = List.iter (fun (_, m) -> drop_client m) t.members

type shard_stats = {
  name : string;
  health : Shard.health;
  breaker : string;
  requests : int;
  failures : int;
  trips : int;
}

type stats = { failovers : int; retries : int; shards : shard_stats list }

let stats (t : t) =
  {
    failovers = t.failovers;
    retries = t.retries;
    shards =
      List.map
        (fun (name, (m : member)) ->
          {
            name;
            health = m.shard.Shard.health;
            breaker = breaker_name m.breaker;
            requests = m.requests;
            failures = m.failures;
            trips = m.trips;
          })
        t.members;
  }
