(* The daemon: one select loop owning sockets, queue, cache and
   journal; solves batched onto the shared domain pool. All mutable
   state lives inside [run] — nothing here is process-global. *)

type address = Unix_path of string | Tcp of { host : string; port : int }

let address_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

type config = {
  address : address;
  queue_capacity : int;
  cache_capacity : int;
  max_frame_bytes : int;
  journal_path : string option;
  durable : bool;
  allow_chaos : bool;
  limits : Runner.Watchdog.limits;
  retry : Runner.Supervisor.retry;
  seed : int64;
  batch : int option;
  snapshot_path : string option;
  snapshot_every_s : float option;
  journal_compact_bytes : int option;
}

let default_config ~address =
  {
    address;
    queue_capacity = 64;
    cache_capacity = 256;
    max_frame_bytes = Proto.default_max_frame_bytes;
    journal_path = None;
    durable = false;
    allow_chaos = false;
    limits =
      { Runner.Watchdog.deadline_s = Some 30.; max_evals = Some 2_000_000 };
    retry =
      Runner.Supervisor.retry ~max_attempts:2 ~backoff_s:0.05 ~multiplier:2.
        ~jitter:0.5 ();
    seed = 7L;
    batch = None;
    snapshot_path = None;
    snapshot_every_s = Some 30.;
    journal_compact_bytes = Some (1 lsl 20);
  }

type event =
  | Listening of { address : string }
  | Recovered of { replayed : int; already_acked : int; torn_lines : int }
  | Connected of { conn : int }
  | Disconnected of { conn : int }
  | Batch_solved of { n : int; wall_s : float }
  | Snapshot_loaded of { entries : int; age_s : float }
  | Snapshot_saved of { entries : int }
  | Compacted of { kept : int; dropped : int; bytes_before : int; bytes_after : int }
  | Draining of { reason : string }
  | Warning of string

(* Every event also lands in Obs.Log (lifecycle at info, per-connection
   and per-batch chatter at debug), so a daemon is observable without
   the caller wiring an [on_event]; the callback remains the structured
   hook for tests and embedding. *)
let log_event event =
  let module L = Obs.Log in
  match event with
  | Listening { address } ->
    L.info ~m:"server" "listening" ~fields:[ ("address", address) ]
  | Recovered { replayed; already_acked; torn_lines } ->
    L.info ~m:"server" "journal recovery complete"
      ~fields:
        [
          ("replayed", string_of_int replayed);
          ("already_acked", string_of_int already_acked);
          ("torn_lines", string_of_int torn_lines);
        ]
  | Connected { conn } ->
    L.debug ~m:"server" "connection opened" ~fields:[ ("conn", string_of_int conn) ]
  | Disconnected { conn } ->
    L.debug ~m:"server" "connection closed" ~fields:[ ("conn", string_of_int conn) ]
  | Batch_solved { n; wall_s } ->
    L.debug ~m:"server" "batch solved"
      ~fields:
        [ ("n", string_of_int n); ("wall_s", Printf.sprintf "%.4f" wall_s) ]
  | Snapshot_loaded { entries; age_s } ->
    L.info ~m:"server" "cache snapshot loaded"
      ~fields:
        [
          ("entries", string_of_int entries);
          ("age_s", Printf.sprintf "%.1f" age_s);
        ]
  | Snapshot_saved { entries } ->
    L.debug ~m:"server" "cache snapshot saved"
      ~fields:[ ("entries", string_of_int entries) ]
  | Compacted { kept; dropped; bytes_before; bytes_after } ->
    L.info ~m:"server" "journal compacted"
      ~fields:
        [
          ("kept", string_of_int kept);
          ("dropped", string_of_int dropped);
          ("bytes_before", string_of_int bytes_before);
          ("bytes_after", string_of_int bytes_after);
        ]
  | Draining { reason } ->
    L.info ~m:"server" "draining" ~fields:[ ("reason", reason) ]
  | Warning msg -> L.warn ~m:"server" msg

(* Per-request limits fall back field-wise to the server defaults. *)
let effective_limits (default : Runner.Watchdog.limits)
    (params : Proto.solve_params) =
  {
    Runner.Watchdog.deadline_s =
      (match params.Proto.deadline_s with
      | Some _ as d -> d
      | None -> default.Runner.Watchdog.deadline_s);
    max_evals =
      (match params.Proto.max_evals with
      | Some _ as m -> m
      | None -> default.Runner.Watchdog.max_evals);
  }

(* One watchdog-guarded, supervised solve. Runs on whatever domain the
   pool scheduled it on; everything it touches arrives by value. Every
   failure shape the chaos harness can provoke comes back as [Error]
   (the degraded-response reason) — nothing escapes to kill a worker. *)
let solve_market ~limits ~retry ?rng ?x0 (market : Proto.market) =
  let start = Obs.Clock.now () in
  let sys =
    Subsidization.System.make ~cps:market.Proto.cps
      ~capacity:market.Proto.capacity ()
  in
  let game =
    Subsidization.Subsidy_game.make sys ~price:market.Proto.price
      ~cap:market.Proto.cap
  in
  let rec go attempt_no =
    match
      (* scrutinee, not a helper thunk: the exception arms below are
         the absorption boundary EXN-ESCAPE checks for *)
      Runner.Watchdog.guard limits (fun () ->
          Subsidization.Nash.solve_result ?x0 game)
    with
    | Ok eq -> Ok eq
    | Error err ->
      if
        attempt_no < retry.Runner.Supervisor.max_attempts
        && Runner.Supervisor.retryable (Numerics.Robust.Solver_error err)
      then begin
        Unix.sleepf (Runner.Supervisor.backoff_delay ?rng retry ~attempt:attempt_no);
        go (attempt_no + 1)
      end
      else Error ("solver: " ^ Numerics.Robust.error_message err)
    | exception Runner.Watchdog.Deadline_exceeded { elapsed_s; limit_s } ->
      Error
        (Printf.sprintf "deadline exceeded: %.3fs elapsed, limit %.3fs"
           elapsed_s limit_s)
    | exception Runner.Watchdog.Eval_budget_exceeded { evaluations; limit } ->
      Error
        (Printf.sprintf "evaluation budget exceeded: %d of %d" evaluations
           limit)
    | exception Numerics.Robust.Solver_error err ->
      Error ("solver: " ^ Numerics.Robust.error_message err)
    | exception Numerics.Fault.Budget_exceeded n ->
      Error
        (Printf.sprintf "injected evaluation budget exhausted after %d evaluations" n)
  in
  match go 1 with
  | Error _ as e -> e
  | Ok eq ->
    let open Subsidization in
    Ok
      {
        Proto.subsidies = Array.copy eq.Nash.subsidies;
        phi = eq.Nash.state.System.phi;
        aggregate = eq.Nash.state.System.aggregate;
        revenue = market.Proto.price *. eq.Nash.state.System.aggregate;
        converged = eq.Nash.converged;
        sweeps = eq.Nash.sweeps;
        kkt_residual = eq.Nash.kkt_residual;
        cache = (match x0 with Some _ -> Proto.Warm | None -> Proto.Cold);
        solve_s = Obs.Clock.elapsed ~since:start;
      }

let solve_one ?cache ?(limits = Runner.Watchdog.no_limits)
    ?(retry = Runner.Supervisor.no_retry) ?rng ~params market =
  let limits = effective_limits limits params in
  match cache with
  | None -> solve_market ~limits ~retry ?rng market
  | Some c -> (
    let fp = Cache.fingerprint market in
    match Cache.find c ~fingerprint:fp with
    | Some solved -> Ok solved
    | None -> (
      let x0 = Cache.warm_start c market in
      match solve_market ~limits ~retry ?rng ?x0 market with
      | Error _ as e -> e
      | Ok solved ->
        Cache.store c ~market ~fingerprint:fp solved;
        Ok solved))

(* {2 Connections} *)

type conn = {
  fd : Unix.file_descr;
  serial : int;
  inbox : Buffer.t;  (** bytes read, not yet split into frames *)
  mutable alive : bool;
  mutable closing : bool;  (** close once current frames are answered *)
}

let send_raw conn data =
  if conn.alive then begin
    let len = String.length data in
    let rec go off =
      if off < len then
        match Unix.write_substring conn.fd data off (len - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          conn.alive <- false
    in
    go 0
  end

let send conn line = send_raw conn (line ^ "\n")

let respond conn response = send conn (Proto.response_to_line response)

(* Complete newline-terminated frames; the partial tail stays buffered. *)
let split_frames conn =
  let s = Buffer.contents conn.inbox in
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
    | None ->
      Buffer.clear conn.inbox;
      Buffer.add_substring conn.inbox s start (String.length s - start);
      List.rev acc
  in
  go 0 []

(* {2 Server state} *)

type pending_solve = {
  p_conn : conn option;  (** [None] during journal replay *)
  seq : int;
  id : string;
  market : Proto.market;
  params : Proto.solve_params;
  fp : string;
}

type st = {
  cfg : config;
  cache : Cache.t;
  queue : pending_solve Queue_guard.t;
  journal : Journal.t option;
  pool : Parallel.Pool.t;
  rng : Numerics.Rng.t;  (** root of the per-request jitter streams *)
  mutable next_seq : int;
  mutable draining : string option;
  mutable conns : conn list;
  emit : event -> unit;
  solved_c : Obs.Metrics.counter;
  degraded_c : Obs.Metrics.counter;
  shed_c : Obs.Metrics.counter;
  rejected_c : Obs.Metrics.counter;
  latency_h : Obs.Metrics.histogram;
  conns_g : Obs.Metrics.gauge;
  journal_pending_g : Obs.Metrics.gauge;
  mutable journal_pending : int;
      (** received-not-yet-acked journal entries: the replay debt a
          crash right now would leave behind *)
  mutable last_snapshot : float;  (** wall clock of the last cache save *)
  mutable next_compact_at : int;
      (** journal size that triggers the next compaction *)
}

let warn st msg = st.emit (Warning msg)

(* {2 Cache snapshot + journal compaction} *)

let save_snapshot st =
  match st.cfg.snapshot_path with
  | None -> ()
  | Some path -> (
    st.last_snapshot <- Obs.Clock.now ();
    match Cache.save st.cache ~path with
    | Ok entries -> st.emit (Snapshot_saved { entries })
    | Error msg -> warn st ("cache snapshot save: " ^ msg))

let maybe_snapshot st =
  match st.cfg.snapshot_every_s with
  | Some every
    when st.cfg.snapshot_path <> None
         && Obs.Clock.elapsed ~since:st.last_snapshot >= every ->
    save_snapshot st
  | Some _ | None -> ()

(* Compact once the file outgrows the threshold, then not before it
   grows by another threshold past the compacted size — so a journal
   whose pending set alone exceeds the threshold cannot trigger a
   rewrite storm. *)
let maybe_compact st =
  match (st.journal, st.cfg.journal_compact_bytes) with
  | Some j, Some threshold when Journal.size_bytes j >= st.next_compact_at -> (
    match Journal.compact j with
    | Ok c ->
      st.next_compact_at <- c.Journal.bytes_after + max 1 threshold;
      st.emit
        (Compacted
           {
             kept = c.Journal.kept;
             dropped = c.Journal.dropped;
             bytes_before = c.Journal.bytes_before;
             bytes_after = c.Journal.bytes_after;
           })
    | Error msg ->
      st.next_compact_at <- Journal.size_bytes j + max 1 threshold;
      warn st msg)
  | _ -> ()

let journal_pending_add st delta =
  if st.journal <> None then begin
    st.journal_pending <- max 0 (st.journal_pending + delta);
    Obs.Metrics.set st.journal_pending_g (float_of_int st.journal_pending)
  end

let journal_received st ~seq ~id ~fp ~line =
  match st.journal with
  | None -> ()
  | Some j -> (
    match Journal.record_received j ~seq ~id ~fingerprint:fp ~request_line:line with
    | Ok () -> journal_pending_add st 1
    | Error msg -> warn st msg)

let journal_acked st ~seq ~id ~kind =
  match st.journal with
  | None -> ()
  | Some j -> (
    match Journal.record_acked j ~seq ~id ~kind with
    | Ok () -> journal_pending_add st (-1)
    | Error msg -> warn st msg)

(* Ack-before-send: the journal line hits the disk (or at least the
   page cache) before the response frame hits the socket, so a crash
   between the two recovers as "already answered" — at-most-once. *)
let answer st (p : pending_solve) result =
  (match result with
  | Ok _ -> journal_acked st ~seq:p.seq ~id:p.id ~kind:Journal.Solved
  | Error _ -> journal_acked st ~seq:p.seq ~id:p.id ~kind:Journal.Degraded);
  (match result with
  | Ok solved ->
    Obs.Metrics.incr st.solved_c;
    Obs.Metrics.observe st.latency_h solved.Proto.solve_s
  | Error _ -> Obs.Metrics.incr st.degraded_c);
  match p.p_conn with
  | None -> ()
  | Some conn -> (
    match result with
    | Ok solved -> respond conn (Proto.Solved { id = p.id; result = solved })
    | Error reason -> respond conn (Proto.Degraded { id = p.id; reason }))

(* Drain the admission queue: cache lookups and warm-start selection on
   the loop domain, cold/warm solves batched onto the pool, then acks,
   cache stores and responses back on the loop domain, in admission
   order. *)
let solve_batch st =
  let batch_max =
    match st.cfg.batch with
    | Some b -> max 1 b
    | None -> 2 * Parallel.Pool.size st.pool
  in
  match Queue_guard.take ~max:batch_max st.queue with
  | [] -> ()
  | items ->
    let t0 = Obs.Clock.now () in
    let items = Array.of_list items in
    let n = Array.length items in
    let staged =
      Array.map
        (fun p ->
          match Cache.find st.cache ~fingerprint:p.fp with
          | Some solved -> `Cached solved
          | None -> `Solve (Cache.warm_start st.cache p.market))
        items
    in
    let rngs = Numerics.Rng.split_n st.rng n in
    let results =
      Parallel.Pool.map st.pool
        (fun i ->
          match staged.(i) with
          | `Cached solved -> Ok solved
          | `Solve x0 ->
            let p = items.(i) in
            solve_market
              ~limits:(effective_limits st.cfg.limits p.params)
              ~retry:st.cfg.retry ~rng:rngs.(i) ?x0 p.market)
        (Array.init n Fun.id)
    in
    Array.iteri
      (fun i p ->
        (match (staged.(i), results.(i)) with
        | `Solve _, Ok solved ->
          Cache.store st.cache ~market:p.market ~fingerprint:p.fp solved
        | _ -> ());
        answer st p results.(i))
      items;
    st.emit (Batch_solved { n; wall_s = Obs.Clock.elapsed ~since:t0 })

(* {2 Plain HTTP}

   A standard scraper speaks HTTP, not our JSON frames, so a line
   starting with "GET " flips the connection into one-shot HTTP mode:
   answer the request line immediately (headers carry no information we
   use), mark the connection closing so the remaining header lines are
   never parsed as frames, and let the loop close it. *)

let is_http_get line =
  String.length line >= 4 && String.equal (String.sub line 0 4) "GET "

let handle_http conn line =
  let line =
    if String.length line > 0 && line.[String.length line - 1] = '\r' then
      String.sub line 0 (String.length line - 1)
    else line
  in
  let target =
    match String.split_on_char ' ' line with _ :: t :: _ -> t | _ -> "/"
  in
  let path =
    match String.index_opt target '?' with
    | Some i -> String.sub target 0 i
    | None -> target
  in
  let status, reason, body =
    if String.equal path "/metrics" then (200, "OK", Obs.Prom.expose ())
    else (404, "Not Found", "not found\n")
  in
  send_raw conn
    (Printf.sprintf
       "HTTP/1.0 %d %s\r\n\
        Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
        Content-Length: %d\r\n\
        Connection: close\r\n\
        \r\n\
        %s"
       status reason (String.length body) body);
  conn.closing <- true

(* {2 Frame dispatch} *)

let handle_frame st conn line =
  if is_http_get line then handle_http conn line
  else
  match Proto.request_of_line ~max_frame_bytes:st.cfg.max_frame_bytes line with
  | Error reason ->
    Obs.Metrics.incr st.rejected_c;
    respond conn (Proto.Rejected { id = None; reason })
  | Ok Proto.Ping -> respond conn Proto.Pong
  | Ok (Proto.Metrics { prefix }) ->
    let json =
      if String.equal prefix "" then Obs.Export.metrics_json ()
      else Obs.Export.metrics_json ~prefix ()
    in
    respond conn (Proto.Metrics_snapshot json)
  | Ok (Proto.Metrics_prom { prefix }) ->
    respond conn (Proto.Prom_text (Obs.Prom.expose ~prefix ()))
  | Ok (Proto.Chaos { mode }) ->
    if st.cfg.allow_chaos then begin
      Numerics.Fault.set_global mode;
      let name =
        match mode with None -> "off" | Some m -> Proto.chaos_mode_name m
      in
      respond conn (Proto.Chaos_ack { mode = name })
    end
    else begin
      Obs.Metrics.incr st.rejected_c;
      respond conn (Proto.Rejected { id = None; reason = Proto.Chaos_disabled })
    end
  | Ok Proto.Shutdown ->
    respond conn Proto.Bye;
    conn.closing <- true;
    if st.draining = None then st.draining <- Some "shutdown request"
  | Ok (Proto.Solve { id; market; params }) -> (
    let fp = Cache.fingerprint market in
    let seq = st.next_seq in
    st.next_seq <- seq + 1;
    journal_received st ~seq ~id ~fp ~line;
    let pending = { p_conn = Some conn; seq; id; market; params; fp } in
    match Queue_guard.admit st.queue pending with
    | Queue_guard.Admitted -> ()
    | Queue_guard.Refused { depth; capacity } ->
      journal_acked st ~seq ~id ~kind:Journal.Shed;
      Obs.Metrics.incr st.shed_c;
      respond conn (Proto.Shed { id; depth; capacity }))

let read_conn st conn =
  let chunk = Bytes.create 4096 in
  (match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> conn.alive <- false
  | n -> Buffer.add_subbytes conn.inbox chunk 0 n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    conn.alive <- false);
  if conn.alive then begin
    (* once closing (HTTP answered, Bye sent) the rest of the buffered
       input — e.g. HTTP header lines — must not be parsed as frames *)
    List.iter
      (fun line -> if not conn.closing then handle_frame st conn line)
      (split_frames conn);
    (* a frame larger than the limit can never complete: reject and
       drop the connection, since framing is lost *)
    if Buffer.length conn.inbox > st.cfg.max_frame_bytes then begin
      Obs.Metrics.incr st.rejected_c;
      respond conn
        (Proto.Rejected
           {
             id = None;
             reason =
               Proto.Oversized_frame
                 {
                   bytes = Buffer.length conn.inbox;
                   limit = st.cfg.max_frame_bytes;
                 };
           });
      conn.alive <- false
    end
  end

(* {2 Listener} *)

let listener_of_address address =
  match address with
  | Unix_path path -> (
    (match Unix.unlink path with
    | () -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    match
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
    with
    | fd -> Ok fd
    | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "bind %s: %s (%s)" path (Unix.error_message e) fn))
  | Tcp { host; port } -> (
    match
      if String.equal host "" then Unix.inet_addr_loopback
      else Unix.inet_addr_of_string host
    with
    | exception Failure _ -> Error ("not a numeric host address: " ^ host)
    | inet -> (
      match
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (inet, port));
        Unix.listen fd 64;
        fd
      with
      | fd -> Ok fd
      | exception Unix.Unix_error (e, fn, _) ->
        Error
          (Printf.sprintf "bind %s:%d: %s (%s)" host port
             (Unix.error_message e) fn)))

(* {2 Recovery} *)

(* Re-solve journal entries that were received but never acked; acked
   entries are left strictly alone (their clients already got an
   answer, or at worst never will — answering twice is the failure
   mode this exists to prevent). Replay is serial on the loop domain:
   the pending set is bounded by the admission queue. *)
let replay_journal st (recovered : Journal.recovered) =
  let replayed = ref 0 in
  List.iter
    (fun (p : Journal.pending) ->
      (match Proto.request_of_line ~max_frame_bytes:st.cfg.max_frame_bytes
               p.Journal.request_line
       with
      | Ok (Proto.Solve { id = _; market; params }) ->
        let rng = Numerics.Rng.split st.rng in
        let result =
          solve_one ~cache:st.cache ~limits:st.cfg.limits ~retry:st.cfg.retry
            ~rng ~params market
        in
        answer st
          {
            p_conn = None;
            seq = p.Journal.seq;
            id = p.Journal.id;
            market;
            params;
            fp = Cache.fingerprint market;
          }
          result
      | Ok _ | Error _ ->
        warn st
          (Printf.sprintf "journal seq %d: unreplayable request, acking degraded"
             p.Journal.seq);
        journal_acked st ~seq:p.Journal.seq ~id:p.Journal.id
          ~kind:Journal.Degraded);
      incr replayed)
    recovered.Journal.pending;
  st.emit
    (Recovered
       {
         replayed = !replayed;
         already_acked = List.length recovered.Journal.acked;
         torn_lines = recovered.Journal.torn_lines;
       })

(* {2 The loop} *)

let close_conn st conn =
  conn.alive <- false;
  (match Unix.close conn.fd with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> ());
  st.emit (Disconnected { conn = conn.serial })

let run ?(on_event = fun _ -> ()) ?(stop = fun () -> false) cfg =
  let journal_recovered =
    match cfg.journal_path with
    | None -> Ok None
    | Some path -> (
      match
        Journal.recover
          ~on_warning:(fun m ->
            log_event (Warning m);
            on_event (Warning m))
          ~path ()
      with
      | Error _ as e -> e
      | Ok recovered -> (
        match Journal.open_ ~durable:cfg.durable ~path () with
        | Error _ as e -> e
        | Ok j -> Ok (Some (j, recovered))))
  in
  match journal_recovered with
  | Error msg -> Error msg
  | Ok journal_recovered -> (
    let st =
      {
        cfg;
        cache = Cache.create ~capacity:cfg.cache_capacity;
        queue = Queue_guard.create ~capacity:cfg.queue_capacity;
        journal = Option.map fst journal_recovered;
        pool = Parallel.Runtime.pool ();
        rng = Numerics.Rng.create cfg.seed;
        next_seq =
          (match journal_recovered with
          | Some (_, r) -> r.Journal.next_seq
          | None -> 0);
        draining = None;
        conns = [];
        emit = (fun ev -> log_event ev; on_event ev);
        solved_c = Obs.Metrics.counter "service.requests.solved";
        degraded_c = Obs.Metrics.counter "service.requests.degraded";
        shed_c = Obs.Metrics.counter "service.requests.shed";
        rejected_c = Obs.Metrics.counter "service.requests.rejected";
        latency_h = Obs.Metrics.histogram "service.solve.latency_s";
        conns_g = Obs.Metrics.gauge "service.connections";
        journal_pending_g = Obs.Metrics.gauge "service.journal.pending";
        journal_pending =
          (match journal_recovered with
          | Some (_, r) -> List.length r.Journal.pending
          | None -> 0);
        last_snapshot = Obs.Clock.now ();
        next_compact_at =
          (match cfg.journal_compact_bytes with
          | Some threshold -> max 1 threshold
          | None -> max_int);
      }
    in
    journal_pending_add st 0;
    (* snapshot-then-replay: the reloaded cache answers replayed
       fingerprints without re-solving, and replayed solves warm-start
       off their snapshot neighbours *)
    (match cfg.snapshot_path with
    | None -> ()
    | Some path -> (
      match Cache.load_into st.cache ~path with
      | Ok { Cache.entries = 0; _ } -> ()
      | Ok { Cache.entries; age_s } -> st.emit (Snapshot_loaded { entries; age_s })
      | Error msg -> warn st msg));
    (match journal_recovered with
    | Some (_, recovered) -> replay_journal st recovered
    | None -> ());
    match listener_of_address cfg.address with
    | Error _ as e ->
      Option.iter Journal.close st.journal;
      e
    | Ok listen_fd ->
      let set_drain reason = if st.draining = None then st.draining <- Some reason in
      let old_term =
        Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> set_drain "SIGTERM"))
      in
      let old_int =
        Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> set_drain "SIGINT"))
      in
      let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      let serial = ref 0 in
      st.emit (Listening { address = address_to_string cfg.address });
      let accept_new () =
        match Unix.accept listen_fd with
        | fd, _ ->
          incr serial;
          let conn =
            { fd; serial = !serial; inbox = Buffer.create 512; alive = true; closing = false }
          in
          st.conns <- conn :: st.conns;
          Obs.Metrics.set st.conns_g (float_of_int (List.length st.conns));
          st.emit (Connected { conn = conn.serial })
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
          ()
      in
      let prune () =
        let dead, live = List.partition (fun c -> not c.alive) st.conns in
        List.iter (close_conn st) dead;
        if dead <> [] then begin
          st.conns <- live;
          Obs.Metrics.set st.conns_g (float_of_int (List.length live))
        end
      in
      let rec loop () =
        if stop () then set_drain "stop callback";
        match st.draining with
        | Some _ -> ()
        | None ->
          (* block only when idle: with work queued, poll and get back
             to solving — the queue drains a batch per iteration *)
          let timeout = if Queue_guard.depth st.queue > 0 then 0. else 0.1 in
          (match
             Unix.select
               (listen_fd :: List.map (fun c -> c.fd) st.conns)
               [] [] timeout
           with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, _, _ ->
            if List.mem listen_fd ready then accept_new ();
            List.iter
              (fun c -> if c.alive && List.mem c.fd ready then read_conn st c)
              st.conns);
          solve_batch st;
          maybe_compact st;
          maybe_snapshot st;
          List.iter (fun c -> if c.closing then c.alive <- false) st.conns;
          prune ();
          loop ()
      in
      loop ();
      let reason = match st.draining with Some r -> r | None -> "stopped" in
      st.emit (Draining { reason });
      (match Unix.close listen_fd with
      | () -> ()
      | exception Unix.Unix_error (_, _, _) -> ());
      (match cfg.address with
      | Unix_path path -> (
        match Unix.unlink path with
        | () -> ()
        | exception Unix.Unix_error (_, _, _) -> ())
      | Tcp _ -> ());
      (* answer everything already admitted before going dark *)
      while Queue_guard.depth st.queue > 0 do
        solve_batch st
      done;
      (* the shutdown snapshot: what the next incarnation warm-starts from *)
      save_snapshot st;
      List.iter (close_conn st) st.conns;
      st.conns <- [];
      Obs.Metrics.set st.conns_g 0.;
      Option.iter Journal.close st.journal;
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigpipe old_pipe;
      Ok ())
