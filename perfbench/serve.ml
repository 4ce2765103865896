(* serve-cold / serve-parallel / serve-repeat: the solve daemon at
   --jobs 1 or 2, fed the seeded request stream over one pipelined
   connection.

   End to end: the daemon kept busy by a closed loop of pipelined
   requests (wall and CPU time per answer), then — with the clock
   stopped — every answer re-verified in this process.

   Per layer: Poisson open-loop arrivals at a fixed nominal rate
   (client-observed latency, the daemon's metrics frame and CPU time),
   a rate ladder up to the first rate that misses the workload's p99
   limit (goodput), then the nominal requests replayed in-process
   through the calls the daemon makes, in its order, each under a span
   opened here. *)

type spec = {
  name : string;
  jobs : int;  (** the daemon's --jobs: its solve batches run on a pool of this many domains *)
  mix : Stream.mix;
  journal : bool;
      (** --journal, without --durable: fsync latency on a shared disk
          moves run to run far beyond any usable bound *)
  nominal_rps : float;
  limit_ms : float;  (** p99 limit that defines goodput *)
}

let cold =
  {
    name = "serve-cold";
    jobs = 1;
    mix = { Stream.repeat = 0.; neighbour = 0.; window = 1 };
    journal = false;
    nominal_rps = 400.;
    limit_ms = 25.;
  }

(* serve-cold on a two-domain daemon: each batch of cold solves goes
   through Parallel.Pool.map, which a one-domain pool runs serially *)
let parallel = { cold with name = "serve-parallel"; jobs = 2 }

let repeat =
  {
    name = "serve-repeat";
    jobs = 1;
    mix = { Stream.repeat = 0.7; neighbour = 0.2; window = 64 };
    journal = true;
    nominal_rps = 500.;
    limit_ms = 100.;
  }

(* {2 Verification} *)

let kkt_tol = 1e-5

let game_of (m : Service.Proto.market) =
  let sys =
    Subsidization.System.make ~cps:m.Service.Proto.cps ~capacity:m.Service.Proto.capacity ()
  in
  Subsidization.Subsidy_game.make sys ~price:m.Service.Proto.price ~cap:m.Service.Proto.cap

(* The answer's own [kkt_residual] and [converged] are not trusted:
   the residual is recomputed from the returned subsidies. *)
let check_solved (m : Service.Proto.market) (s : Service.Proto.solved) =
  let q = m.Service.Proto.cap in
  if Array.length s.Service.Proto.subsidies <> Array.length m.Service.Proto.cps then
    Some "wrong number of subsidies"
  else if
    not
      (Array.for_all
         (fun x -> Float.is_finite x && x >= -1e-12 && x <= q +. 1e-12)
         s.Service.Proto.subsidies)
  then Some "subsidy outside [0, q]"
  else if not (Float.is_finite s.Service.Proto.phi) then Some "non-finite utilization"
  else
    match Subsidization.Nash.kkt_residual (game_of m) ~subsidies:s.Service.Proto.subsidies with
    | r when r <= kkt_tol -> None
    | r -> Some (Printf.sprintf "KKT residual %.3g" r)
    | exception Numerics.Robust.Solver_error e ->
      Some ("KKT recomputation failed: " ^ Numerics.Robust.error_message e)

type verdict =
  | Good
  | Unserved of string  (** unanswered, shed, degraded or rejected *)
  | Wrong of string  (** answered, but the answer fails verification *)

(* [first] maps a fingerprint to the first answer seen for it; an exact
   repeat must come back identical. *)
let verify ~first (a : Openloop.answer) =
  match a.Openloop.response with
  | None -> Unserved "unanswered"
  | Some (Service.Proto.Degraded { reason; _ }) -> Unserved ("degraded: " ^ reason)
  | Some (Service.Proto.Shed _) -> Unserved "shed"
  | Some (Service.Proto.Rejected _) -> Unserved "rejected"
  | Some (Service.Proto.Solved { result; _ }) -> (
    let item = a.Openloop.item in
    match Hashtbl.find_opt first item.Stream.fp with
    | Some (subs, phi) ->
      if subs = result.Service.Proto.subsidies && Float.equal phi result.Service.Proto.phi then Good
      else Wrong "exact repeat answered differently"
    | None -> (
      Hashtbl.replace first item.Stream.fp
        (result.Service.Proto.subsidies, result.Service.Proto.phi);
      match check_solved item.Stream.market result with None -> Good | Some why -> Wrong why))
  | Some _ -> Wrong "unexpected response"

let is_wrong = function Wrong _ -> true | Good | Unserved _ -> false

(* {2 Phases} *)

type phase_stats = {
  rate : float;
  sent : int;
  failed : int;
  p50_ms : float;
  p99_ms : float;  (** median over the phase's windows of each window's p99 *)
  phase_p99_ms : float;  (** p99 of the whole phase *)
  lag_p99_ms : float;
  backlog : int;
}

(* Latency percentiles by due time. [p99_ms] is the typical window's
   p99: a stall of the host that lands in one window moves that
   window's p99 only, while a daemon that is slow throughout moves them
   all. [phase_p99_ms] keeps every stall. *)
let stats ~rate ~windows ~verdicts (phase : Openloop.phase) answers =
  let latencies sel =
    Array.of_list
      (List.filter_map
         (fun (i, (a : Openloop.answer)) ->
           if sel i then Option.map (fun l -> 1e3 *. l) a.Openloop.latency_s else None)
         (List.mapi (fun i a -> (i, a)) (Array.to_list answers)))
  in
  let n = Array.length answers in
  let t0 = if n = 0 then 0. else phase.Openloop.due.(0) in
  let span = if n = 0 then 1. else phase.Openloop.due.(n - 1) -. t0 +. 1e-9 in
  let window i = int_of_float (float_of_int windows *. (phase.Openloop.due.(i) -. t0) /. span) in
  let all = latencies (fun _ -> true) in
  {
    rate;
    sent = n;
    failed = List.length (List.filter (fun v -> v <> Good) verdicts);
    p50_ms = Measure.median all;
    p99_ms =
      Measure.median
        (Array.init windows (fun w -> Measure.quantile (latencies (fun i -> window i = w)) 0.99));
    phase_p99_ms = Measure.quantile all 0.99;
    lag_p99_ms = 1e3 *. Measure.quantile phase.Openloop.lag 0.99;
    backlog = phase.Openloop.backlog;
  }

let run_phase ?actions conn stream ~first ~rate ~duration ~windows =
  let schedule = Stream.schedule stream ~rate ~duration in
  let phase = Openloop.run ?actions conn ~drain_s:5. schedule in
  let answers = Openloop.answers phase in
  (* verification runs between phases, off every clock *)
  let verdicts = List.map (verify ~first) (Array.to_list answers) in
  (stats ~rate ~windows ~verdicts phase answers, answers, verdicts, phase)

(* Nothing failed, the typical p99 is within the limit, and the backlog
   when sending stopped is no more than the limit's worth of arrivals. *)
let rung_ok spec s =
  s.failed = 0 && s.p99_ms <= spec.limit_ms
  && float_of_int s.backlog <= (s.rate *. spec.limit_ms /. 1e3) +. 8.

(* The rate ladder is nominal_rps * 1.05^k. Goodput is found by climbing
   it in steps of 7 rungs (x1.41) from the nominal phase, which is rung
   0, until a rung misses; then by bisecting between the last rung that
   met the limit and the first that missed; within that last 5% step it
   is interpolated in log(p99). *)
let step = 1.05

let climb_rungs = 7

let max_probes = 9

let interpolate spec ok fail =
  if fail.p99_ms > spec.limit_ms && ok.p99_ms > 0. && fail.p99_ms > ok.p99_ms then
    let frac = (log spec.limit_ms -. log ok.p99_ms) /. (log fail.p99_ms -. log ok.p99_ms) in
    ok.rate +. ((fail.rate -. ok.rate) *. Float.min 1. (Float.max 0. frac))
  else ok.rate

(* Returns the goodput and the number of wrong answers seen on the way
   (overload may shed or slow answers, but never make one wrong). *)
let goodput conn stream spec ~first ~rung_s ~nominal =
  let wrong = ref 0 in
  let probes = ref 0 in
  let probe k =
    incr probes;
    let rate = spec.nominal_rps *. (step ** float_of_int k) in
    let s, _, verdicts, _ = run_phase conn stream ~first ~rate ~duration:rung_s ~windows:3 in
    wrong := !wrong + List.length (List.filter is_wrong verdicts);
    Printf.printf "  rung %7.1f/s: p50 %.3f ms, p99 %.3f ms, backlog %d, failed %d\n%!" rate
      s.p50_ms s.p99_ms s.backlog s.failed;
    (k, s, rung_ok spec s)
  in
  (* [lo] met the limit; climb until a rung misses or probes run out *)
  let rec climb ((k, s, _) as lo) =
    if !probes >= max_probes then s.rate
    else
      match probe (k + climb_rungs) with
      | (_, _, true) as next -> climb next
      | hi -> bisect lo hi
  and bisect ((klo, slo, _) as lo) ((khi, shi, _) as hi) =
    if khi - klo <= 1 || !probes >= max_probes then interpolate spec slo shi
    else
      match probe ((klo + khi) / 2) with
      | (_, _, true) as mid -> bisect mid hi
      | mid -> bisect lo mid
  in
  let result =
    if rung_ok spec nominal then climb (0, nominal, true)
    else nominal.rate *. Float.min 1. (spec.limit_ms /. nominal.p99_ms)
  in
  (result, !wrong)

(* {2 Workload properties} *)

let shares (answers : Openloop.answer array) =
  let n = float_of_int (max 1 (Array.length answers)) in
  let count p = float_of_int (Array.fold_left (fun acc a -> if p a.Openloop.item then acc + 1 else acc) 0 answers) /. n in
  let kind k = count (fun i -> i.Stream.kind = k) in
  let cps c = count (fun i -> Array.length i.Stream.market.Service.Proto.cps = c) in
  ( [ ("fresh", kind Stream.Fresh); ("repeat", kind Stream.Repeat); ("neighbour", kind Stream.Neighbour) ],
    List.map (fun c -> (c, cps c)) [ 1; 2; 3; 4 ] )

let print_properties answers frame =
  let kinds, cps = shares answers in
  let hits = Daemon.series frame ~name:"service.cache.hits" ~field:"value" in
  let misses = Daemon.series frame ~name:"service.cache.misses" ~field:"value" in
  let warm = Daemon.series frame ~name:"service.cache.warm_seeds" ~field:"value" in
  Printf.printf
    "workload properties: %s; CPs %s; daemon cache hit ratio %.3f, warm-seed ratio %.3f; host \
     nproc %d, OCaml %s\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %.3f" k v) kinds))
    (String.concat ", " (List.map (fun (c, v) -> Printf.sprintf "%d:%.3f" c v) cps))
    (Measure.ratio hits (hits +. misses))
    (Measure.ratio warm misses) (Measure.nproc ()) Sys.ocaml_version

let print_failures answers verdicts =
  let shown = ref 0 in
  List.iteri
    (fun i v ->
      match v with
      | (Unserved why | Wrong why) when !shown < 10 ->
        incr shown;
        Printf.printf "FAIL %s: %s\n" answers.(i).Openloop.item.Stream.id why
      | Good | Unserved _ | Wrong _ -> ())
    verdicts

(* Set-up samples come in rounds of daemons spawned and stopped, read
   by Measure.setup_s: five rounds before the load, one after it and one
   after each replay pass, so that they spread over the run as the work
   does. Daemon 0 is the one put under load. *)
let setup_round ~cli ~dir spec ~round =
  Array.init Measure.starts_per_round (fun i ->
      let n = 1 + (round * Measure.starts_per_round) + i in
      let d = Daemon.spawn ~cli ~dir ~n ~jobs:spec.jobs ~journal:spec.journal in
      Daemon.stop d;
      d.Daemon.setup_s)

(* The traced run's nominal phase takes this share of the run, in
   one-second windows; each ladder rung a twentieth. *)
let nominal_share = 0.3

let nominal_phase conn stream spec ~first ~seconds =
  let duration = nominal_share *. seconds in
  run_phase conn stream ~first ~rate:spec.nominal_rps ~duration
    ~windows:(max 1 (int_of_float duration))

(* {2 In-process replay} *)

(* Spans opened around each call of a replayed request, and the
   per-layer metric each one gives. The cache calls are timed on a
   shadow cache beside the request (see [replay]). *)
let stages =
  [
    ("bench.decode", "service.proto.decode_us");
    ("bench.fingerprint", "service.cache.fingerprint_us");
    ("bench.journal_received", "");
    ("bench.solve_one", "");
    ("bench.journal_acked", "");
    ("bench.encode", "service.proto.encode_us");
    ("bench.cache_find", "service.cache.find_us");
    ("bench.cache_warm_start", "service.cache.warm_start_us");
    ("bench.cache_store", "service.cache.store_us");
  ]

(* Nash.solve_result's own span, opened inside the library. *)
let nash_span = "nash.solve"

type replay = {
  wall_s : float;
  replayed : int;
  chunk_ms : float list;  (** wall ms per request, per chunk of [chunk] requests *)
  cache_stats : Service.Cache.stats;
  solves : int;
  sweeps : int;
  stage_total : (string, float * int) Hashtbl.t;  (** seconds, calls *)
  request_sums : float list;  (** per request: the stages' summed seconds *)
  self : (string, float) Hashtbl.t;  (** span self seconds by name *)
  dropped : int;
}

let ok_or_fail = function Ok x -> x | Error msg -> failwith msg

let is_bench name = String.length name > 6 && String.equal (String.sub name 0 6) "bench."

let harvest r =
  let spans = Obs.Trace.spans () in
  let children = Hashtbl.create 4096 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let d = s.stop -. s.start in
      if is_bench s.name || String.equal s.name nash_span then begin
        (match s.parent with
        | Some p when is_bench s.name ->
          Hashtbl.replace children p (d +. Option.value ~default:0. (Hashtbl.find_opt children p))
        | _ -> ());
        let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt r.stage_total s.name) in
        Hashtbl.replace r.stage_total s.name (t +. d, n + 1)
      end)
    spans;
  let sums =
    List.filter_map
      (fun (s : Obs.Trace.span) ->
        if String.equal s.name "bench.request" then Hashtbl.find_opt children s.id else None)
      spans
  in
  (* a chunk that overflowed the span buffer is left out of the self
     times (see Figures.child) *)
  let dropped = Obs.Trace.dropped () in
  if dropped = 0 then Measure.add_into r.self (Measure.self_times spans);
  Obs.Trace.clear ();
  { r with request_sums = List.rev_append sums r.request_sums; dropped = r.dropped + dropped }

let chunk = 200

let config = Service.Server.default_config ~address:(Service.Server.Unix_path "")

(* Replay [items] in order, for at most [budget_s] of replay wall time,
   through the daemon's calls: decode, fingerprint, journal [received],
   Server.solve_one on a cache of the daemon's default capacity, journal
   [acked], encode. When [traced], each call runs under a span, and
   Cache.find / warm_start / store are also timed beside the request on
   a shadow cache that receives the same calls solve_one makes, so the
   two caches hold the same entries throughout. *)
let replay ?(budget_s = Float.infinity) ~dir ~tag spec (items : Stream.item array) ~traced =
  let cache = Service.Cache.create ~capacity:config.Service.Server.cache_capacity in
  let shadow = Service.Cache.create ~capacity:config.Service.Server.cache_capacity in
  let journal =
    if spec.journal then
      Some
        (ok_or_fail
           (Service.Journal.open_ ~path:(Filename.concat dir (tag ^ ".jsonl")) ()))
    else None
  in
  let span = Obs.Trace.with_span in
  let journal_event name f =
    span name (fun () -> Option.iter (fun j -> ok_or_fail (f j)) journal)
  in
  let shadow_calls fp market result =
    match span "bench.cache_find" (fun () -> Service.Cache.find shadow ~fingerprint:fp) with
    | Some _ -> ()
    | None ->
      ignore (span "bench.cache_warm_start" (fun () -> Service.Cache.warm_start shadow market));
      Result.iter
        (fun s -> span "bench.cache_store" (fun () -> Service.Cache.store shadow ~market ~fingerprint:fp s))
        result
  in
  (* the request path; returns the market and solve_one's result *)
  let one seq (item : Stream.item) =
    span "bench.request" @@ fun () ->
    match span "bench.decode" (fun () -> Service.Proto.request_of_line item.Stream.line) with
    | Ok (Service.Proto.Solve { id; market; params }) ->
      let fp = span "bench.fingerprint" (fun () -> Service.Cache.fingerprint market) in
      journal_event "bench.journal_received" (fun j ->
          Service.Journal.record_received j ~seq ~id ~fingerprint:fp ~request_line:item.Stream.line);
      let result =
        span "bench.solve_one" (fun () ->
            Service.Server.solve_one ~cache ~limits:config.Service.Server.limits
              ~retry:config.Service.Server.retry ~params market)
      in
      let kind, response =
        match result with
        | Ok s -> (Service.Journal.Solved, Service.Proto.Solved { id; result = s })
        | Error reason -> (Service.Journal.Degraded, Service.Proto.Degraded { id; reason })
      in
      journal_event "bench.journal_acked" (fun j -> Service.Journal.record_acked j ~seq ~id ~kind);
      ignore (span "bench.encode" (fun () -> Service.Proto.response_to_line response));
      (fp, market, result)
    | _ -> failwith "replay: not a solve frame"
  in
  Obs.Trace.clear ();
  Obs.Trace.set_enabled traced;
  let r =
    ref
      {
        wall_s = 0.;
        replayed = 0;
        chunk_ms = [];
        cache_stats = Service.Cache.stats cache;
        solves = 0;
        sweeps = 0;
        stage_total = Hashtbl.create 16;
        request_sums = [];
        self = Hashtbl.create 16;
        dropped = 0;
      }
  in
  let wall = ref 0. and chunk_wall = ref 0. and chunks = ref [] and i = ref 0 in
  let solves = ref 0 and sweeps = ref 0 in
  while !i < Array.length items && !wall < budget_s do
    let misses = (Service.Cache.stats cache).Service.Cache.misses in
    let t0 = Obs.Clock.now () in
    let fp, market, result = one !i items.(!i) in
    let dt = Obs.Clock.elapsed ~since:t0 in
    (* off the replay's clock: solver work done, shadow cache calls *)
    if (Service.Cache.stats cache).Service.Cache.misses > misses then begin
      incr solves;
      Result.iter (fun s -> sweeps := !sweeps + s.Service.Proto.sweeps) result
    end;
    if traced then shadow_calls fp market result;
    wall := !wall +. dt;
    chunk_wall := !chunk_wall +. dt;
    incr i;
    if !i mod chunk = 0 then begin
      chunks := (1e3 *. !chunk_wall /. float_of_int chunk) :: !chunks;
      chunk_wall := 0.;
      (* span analysis between requests, off the replay's clock *)
      if traced then r := harvest !r
    end
  done;
  if traced then r := harvest !r;
  Obs.Trace.set_enabled false;
  Option.iter
    (fun j ->
      Service.Journal.close j;
      Sys.remove (Filename.concat dir (tag ^ ".jsonl")))
    journal;
  {
    !r with
    wall_s = !wall;
    replayed = !i;
    chunk_ms = !chunks;
    cache_stats = Service.Cache.stats cache;
    solves = !solves;
    sweeps = !sweeps;
  }

(* The pool the daemon's solve batches run on, measured in process: the
   requests' markets solved through Parallel.Pool.map on [spec.jobs]
   domains, in batches of the daemon's default size (two per domain),
   each task Server.solve_one without a cache. Returns the pool's
   batches and tasks per domain over the pass, and its CPU seconds per
   wall second. *)
let pool_pass spec (items : Stream.item array) =
  Parallel.Runtime.set_jobs spec.jobs;
  let pool = Parallel.Runtime.pool () in
  let before = Parallel.Pool.stats pool in
  let batch = 2 * Parallel.Pool.size pool in
  let solve (item : Stream.item) =
    match Service.Proto.request_of_line item.Stream.line with
    | Ok (Service.Proto.Solve { market; params; _ }) ->
      ignore
        (Service.Server.solve_one ~limits:config.Service.Server.limits
           ~retry:config.Service.Server.retry ~params market)
    | _ -> failwith "pool pass: not a solve frame"
  in
  let cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
  let cpu0 = cpu () and t0 = Obs.Clock.now () in
  let rec go i =
    if i < Array.length items then begin
      let n = min batch (Array.length items - i) in
      ignore (Parallel.Pool.map pool solve (Array.sub items i n));
      go (i + n)
    end
  in
  go 0;
  let cpu_per_wall = (cpu () -. cpu0) /. Obs.Clock.elapsed ~since:t0 in
  let after = Parallel.Pool.stats pool in
  ( after.Parallel.Pool.batches - before.Parallel.Pool.batches,
    Array.map2 ( - ) after.Parallel.Pool.tasks_run before.Parallel.Pool.tasks_run,
    cpu_per_wall )

(* End to end: the live daemon kept busy by [in_flight] pipelined
   requests for up to 40% of the run (its CPU time per answer from
   /proc, its peak RSS, every answer verified); then the first
   [replay_items] of those requests replayed in this process, pass
   after pass on a fresh cache and journal, for 45% of the run. Their
   wall time per request — the daemon's request path without the
   socket, run back to back like a figures regeneration — is the
   replay's wall time over the requests it replayed. On a shared host
   the live daemon's own wall time per answer moves with the scheduler
   far more than its CPU time. The host also switches between a fast
   and a slow speed for seconds at a time, so the chunk times of one
   run are bimodal: a median would jump from one mode to the other as
   the mix changes, where the mean moves with it. *)
let saturation_share = 0.4

let replay_share = 0.45

let in_flight = 32

(* Every request and answer is kept for verification; this bounds the
   benchmark's memory. *)
let max_requests = 50_000

(* Each replay pass walks the first [replay_items] answered requests. *)
let replay_items = 10_000

let end_to_end ~cli spec ~seed ~seconds =
  Measure.with_dir spec.name @@ fun dir ->
  let stream = Stream.create ~seed spec.mix in
  let rounds = ref [] in
  let sample_setup () = rounds := setup_round ~cli ~dir spec ~round:(List.length !rounds) :: !rounds in
  for _ = 1 to 5 do
    sample_setup ()
  done;
  let d = Daemon.spawn ~cli ~dir ~n:0 ~jobs:spec.jobs ~journal:spec.journal in
  let conn = Openloop.connect d.Daemon.socket in
  let duration = saturation_share *. seconds in
  let cpu0 = Measure.cpu_s d.Daemon.pid in
  let phase =
    Openloop.saturate conn ~window:in_flight ~duration ~limit:max_requests ~drain_s:5. (fun () ->
        Stream.next stream)
  in
  let cpu1 = Measure.cpu_s d.Daemon.pid in
  let rss = Measure.peak_rss_mb d.Daemon.pid in
  let frame = Daemon.metrics d in
  Openloop.close conn;
  Daemon.stop d;
  sample_setup ();
  (* the clock has stopped: verify every answer *)
  let attempted, failed, answered, items =
    let answers = Openloop.answers phase in
    let first = Hashtbl.create 4096 in
    let verdicts = List.map (verify ~first) (Array.to_list answers) in
    print_properties answers frame;
    print_failures answers verdicts;
    ( Array.length answers,
      List.length (List.filter (fun v -> v <> Good) verdicts),
      List.length phase.Openloop.responses,
      Array.map
        (fun (a : Openloop.answer) -> a.Openloop.item)
        (Array.sub answers 0 (min replay_items (Array.length answers))) )
  in
  (* the answers are garbage now: collect them off the clock, so the
     replay's own collections do not also sweep them *)
  Gc.full_major ();
  let rec passes n budget acc =
    if budget <= 0. || Array.length items = 0 then acc
    else
      let r = replay ~budget_s:budget ~dir ~tag:(Printf.sprintf "replay%d" n) spec items ~traced:false in
      sample_setup ();
      passes (n + 1) (budget -. r.wall_s) (r :: acc)
  in
  let rs = passes 0 (replay_share *. seconds) [] in
  let replayed = List.fold_left (fun acc r -> acc + r.replayed) 0 rs in
  let chunks = Array.of_list (List.concat_map (fun r -> r.chunk_ms) rs) in
  let work_ms =
    1e3 *. List.fold_left (fun acc r -> acc +. r.wall_s) 0. rs /. float_of_int (max 1 replayed)
  in
  Printf.printf
    "saturated (%d in flight): %d answered; replayed %d in process in %d passes over the first \
     %d: %.4f ms/request, chunks of %d p25 %.4f p50 %.4f p75 %.4f; benchmark peak RSS %.1f MiB\n"
    in_flight answered replayed (List.length rs) (Array.length items) work_ms chunk
    (Measure.quantile chunks 0.25) (Measure.median chunks) (Measure.quantile chunks 0.75)
    (Measure.peak_rss_mb 0);
  let setups = List.rev !rounds in
  Printf.printf "setup_s samples (%d rounds): %s\n" (List.length setups)
    (Measure.samples (Array.concat setups));
  let m = Measure.metric in
  ( attempted,
    failed,
    [
      m "setup_s" "s" (Measure.setup_s setups);
      m "work_ms" "ms" work_ms;
      m "cpu_ms" "ms" (1e3 *. (cpu1 -. cpu0) /. float_of_int (max 1 answered));
      m "peak_rss_mb" "MiB" rss;
    ] )

let replay_cap = 3000

let per_layer ~cli spec ~seed ~seconds =
  Measure.with_dir spec.name @@ fun dir ->
  let stream = Stream.create ~seed spec.mix in
  let d = Daemon.spawn ~cli ~dir ~n:0 ~jobs:spec.jobs ~journal:spec.journal in
  let conn = Openloop.connect d.Daemon.socket in
  let first = Hashtbl.create 4096 in
  let cpu0 = Measure.cpu_s d.Daemon.pid in
  let nominal, answers, verdicts, _ = nominal_phase conn stream spec ~first ~seconds in
  let cpu1 = Measure.cpu_s d.Daemon.pid in
  let frame = Daemon.metrics d in
  let goodput, ladder_wrong = goodput conn stream spec ~first ~rung_s:(seconds /. 20.) ~nominal in
  Openloop.close conn;
  Daemon.stop d;
  Printf.printf
    "nominal %.0f/s: %d sent, p50 %.3f ms, p99 %.3f ms (whole phase %.3f ms), lag p99 %.3f ms, \
     failed %d; goodput %.1f/s\n"
    spec.nominal_rps nominal.sent nominal.p50_ms nominal.p99_ms nominal.phase_p99_ms
    nominal.lag_p99_ms nominal.failed goodput;
  if ladder_wrong > 0 then Printf.printf "FAIL %d wrong answers on the rate ladder\n" ladder_wrong;
  print_properties answers frame;
  print_failures answers verdicts;
  (* the replay walks the nominal phase's first requests *)
  let items =
    Array.map (fun a -> a.Openloop.item) (Array.sub answers 0 (min replay_cap (Array.length answers)))
  in
  let n = float_of_int (max 1 (Array.length items)) in
  let per_req_nominal = float_of_int (max 1 (Array.length answers)) in
  (* untraced replay first: wall clock, solver counters, GC *)
  Numerics.Robust.reset_stats ();
  Numerics.Continuation.reset_stats ();
  Numerics.Ad.reset_stats ();
  Numerics.Diff.reset_stats ();
  let gc0 = Gc.quick_stat () in
  let plain = replay ~dir ~tag:"plain" spec items ~traced:false in
  let gc1 = Gc.quick_stat () in
  let robust = Numerics.Robust.stats () in
  let cont = Numerics.Continuation.stats () in
  let evals = Obs.Metrics.sum_histograms "solver.evaluations" in
  let ad = (Numerics.Ad.stats ()).Numerics.Ad.passes in
  let fd = (Numerics.Diff.stats ()).Numerics.Diff.estimates in
  let traced = replay ~dir ~tag:"traced" spec items ~traced:true in
  let pool =
    if spec.jobs = 1 then []
    else
      let batches, tasks, cpu_per_wall = pool_pass spec items in
      let tasks = Array.map float_of_int tasks in
      let task d = if d < Array.length tasks then tasks.(d) else 0. in
      [
        ("parallel.pool.batches", float_of_int batches);
        ("parallel.pool.tasks_d0", task 0);
        ("parallel.pool.tasks_d1", task 1);
        ( "parallel.pool.task_imbalance",
          Measure.ratio (Numerics.Stats.maximum tasks) (Numerics.Stats.mean tasks) );
        ("parallel.cpu_per_wall", cpu_per_wall);
      ]
  in
  let stage_us name =
    match Hashtbl.find_opt traced.stage_total name with
    | Some (t, calls) when calls > 0 -> 1e6 *. t /. float_of_int calls
    | _ -> 0.
  in
  let journal_us =
    let t1, c1 = Option.value ~default:(0., 0) (Hashtbl.find_opt traced.stage_total "bench.journal_received") in
    let t2, c2 = Option.value ~default:(0., 0) (Hashtbl.find_opt traced.stage_total "bench.journal_acked") in
    if spec.journal && c1 + c2 > 0 then 1e6 *. (t1 +. t2) /. float_of_int (c1 + c2) else 0.
  in
  let stage_sum_ms = 1e3 *. Measure.median (Array.of_list traced.request_sums) in
  let solve_p50 = Daemon.series frame ~name:"service.solve.latency_s" ~field:"p50" in
  let unexplained = nominal.p50_ms -. stage_sum_ms in
  Printf.printf
    "reconciliation %s: traced stage sum %.4f ms | daemon solve_s p50 %.4f ms | client p50 %.4f \
     ms | unexplained %.4f ms\n"
    spec.name stage_sum_ms (1e3 *. solve_p50) nominal.p50_ms unexplained;
  Printf.printf "loadgen.lag_ms_p99 %.4f\n" nominal.lag_p99_ms;
  let self name = Option.value ~default:0. (Hashtbl.find_opt traced.self name) /. n in
  let kinds, cps = shares answers in
  let per_solve x = Measure.ratio x (float_of_int (max 1 plain.solves)) in
  let per_request x = x /. n in
  let cs = plain.cache_stats in
  let hits = float_of_int cs.Service.Cache.hits and misses = float_of_int cs.Service.Cache.misses in
  ( nominal.sent,
    nominal.failed + ladder_wrong,
    List.filter_map
      (fun (span, metric) -> if metric = "" then None else Some (metric, stage_us span))
      stages
    @ [
        ("service.journal.append_us", journal_us);
        ("service.cache.hit_ratio", Measure.ratio hits (hits +. misses));
        ("service.cache.warm_ratio", Measure.ratio (float_of_int cs.Service.Cache.warm_seeds) misses);
        ("core.nash.solve_us", stage_us nash_span);
        ("core.nash.sweeps", per_solve (float_of_int plain.sweeps));
        ("service.daemon.cpu_us_per_req", 1e6 *. (cpu1 -. cpu0) /. per_req_nominal);
        ("service.server.solve_s_p50", solve_p50);
        ("reconcile.stage_sum_ms", stage_sum_ms);
        ("reconcile.unexplained_ms", unexplained);
        ("loadgen.latency_p50_ms", nominal.p50_ms);
        ("loadgen.latency_p99_ms", nominal.p99_ms);
        ("loadgen.phase_p99_ms", nominal.phase_p99_ms);
        ("loadgen.goodput_rps", goodput);
        ("loadgen.lag_ms_p99", nominal.lag_p99_ms);
        ("trace.dropped", float_of_int traced.dropped);
        ("trace.overhead_ratio", traced.wall_s /. plain.wall_s);
        ("numerics.robust.root_calls", per_request (float_of_int robust.Numerics.Robust.root_calls));
        ("numerics.robust.evals", per_request evals);
        ("numerics.robust.fallbacks", per_request (float_of_int robust.Numerics.Robust.fallbacks));
        ("numerics.robust.failures", per_request (float_of_int robust.Numerics.Robust.failures));
        ("numerics.continuation.steps", per_request cont.Numerics.Continuation.steps);
        ("numerics.continuation.accepts", per_request cont.Numerics.Continuation.predictor_accepts);
        ( "numerics.continuation.accept_ratio",
          Measure.ratio cont.Numerics.Continuation.predictor_accepts cont.Numerics.Continuation.steps );
        ( "numerics.continuation.corrector_iters",
          per_request cont.Numerics.Continuation.corrector_iterations );
        ("numerics.continuation.fallbacks", per_request cont.Numerics.Continuation.fallbacks);
        ("numerics.ad.passes", per_request ad);
        ("numerics.diff.estimates", per_request fd);
        ("core.system.self_s", self "system.equilibrium_phi");
        ("core.nash.self_s", self "nash.solve");
        ("game.best_response.self_s", self "best_response.solve");
        ( "process.gc.minor",
          per_request (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections)) );
        ( "process.gc.major",
          per_request (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) );
        ("process.gc.promoted_mw", per_request ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6));
      ]
    @ pool
    @ List.map (fun (k, v) -> (Printf.sprintf "workload.%s_share" k, v)) kinds
    @ List.map (fun (c, v) -> (Printf.sprintf "workload.cps_%d_share" c, v)) cps )
