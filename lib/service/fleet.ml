let shard_name i = Printf.sprintf "s%d" i

let layout ~dir ~shards (base : Server.config) =
  List.init shards (fun i ->
      let file ext = Filename.concat dir (shard_name i ^ ext) in
      {
        base with
        Server.address = Server.Unix_path (file ".sock");
        journal_path = Some (file ".journal");
        snapshot_path = Some (file ".snapshot");
        seed = Int64.add base.Server.seed (Int64.of_int (1000 * i));
      })

let ring configs =
  Shard.make
    (List.mapi
       (fun i (cfg : Server.config) ->
         {
           Shard.name = shard_name i;
           address = cfg.Server.address;
           health = Shard.Up;
           failures = 0;
         })
       configs)

type t = {
  configs : Server.config array;
  jobs : int option;
  pids : int array;  (** 0 once reaped *)
  reaped : Unix.process_status option array;
      (** exits reaped by {!publish}, not yet seen by {!supervise} or {!wait} *)
}

let startup_failure = 1

(* the child never returns into its parent's code: [Server.run] ends in
   an exit code, and anything it raises ends in 2, the code of an
   uncaught exception *)
let fork_child ?jobs cfg =
  (* inherited unflushed buffers would be written twice *)
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Fun.protect
      ~finally:(fun () -> Unix._exit 2)
      (fun () ->
        (* a respawned child inherits [supervise]'s forwarding handlers;
           until [Server.run] installs its own, a stop signal must end
           this shard, not signal its siblings *)
        Sys.set_signal Sys.sigterm Sys.Signal_default;
        Sys.set_signal Sys.sigint Sys.Signal_default;
        Option.iter Parallel.Runtime.set_jobs jobs;
        let code =
          match Server.run cfg with
          | Ok () -> 0
          | Error msg ->
            Obs.Log.error ~m:"fleet"
              ~fields:[ ("address", Server.address_to_string cfg.Server.address) ]
              msg;
            startup_failure
        in
        flush_all ();
        Unix._exit code)
  | pid -> pid

let start ?jobs configs =
  let configs = Array.of_list configs in
  {
    configs;
    jobs;
    pids = Array.map (fork_child ?jobs) configs;
    reaped = Array.make (Array.length configs) None;
  }

let signal t i s =
  let pid = t.pids.(i) in
  if pid > 0 then try Unix.kill pid s with Unix.Unix_error (_, _, _) -> ()

let rec wait t i =
  let pid = t.pids.(i) in
  if pid <= 0 then begin
    let status = t.reaped.(i) in
    t.reaped.(i) <- None;
    status
  end
  else
    match Unix.waitpid [] pid with
    | _, status ->
      t.pids.(i) <- 0;
      Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait t i
    | exception Unix.Unix_error (_, _, _) ->
      t.pids.(i) <- 0;
      None

let respawn t i = t.pids.(i) <- fork_child ?jobs:t.jobs t.configs.(i)

(* shard [i]'s exit, if it has exited: reaped without blocking and kept
   for [supervise] *)
let exited t i =
  let pid = t.pids.(i) in
  if pid > 0 then begin
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _, status ->
      t.pids.(i) <- 0;
      t.reaped.(i) <- Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> t.pids.(i) <- 0
  end;
  t.pids.(i) <= 0

let await_while ~alive address =
  let timeout_s = 10. in
  let deadline = Obs.Clock.now () +. timeout_s in
  let rec attempt () =
    let answer =
      match Client.connect address with
      | Error e -> Error (Client.error_to_string e)
      | Ok client -> (
        let left = Float.max 0.05 (deadline -. Obs.Clock.now ()) in
        match Client.call ~timeout_s:left client Proto.Ping with
        | Ok Proto.Pong -> Ok client
        | Ok r ->
          Client.close client;
          Error ("ping answered " ^ Proto.response_to_line r)
        | Error e ->
          Client.close client;
          Error (Client.error_to_string e))
    in
    match answer with
    | Ok _ as ok -> ok
    | Error msg when not (alive ()) ->
      Error
        (Printf.sprintf "%s exited before answering: %s"
           (Server.address_to_string address) msg)
    | Error msg when Obs.Clock.now () >= deadline ->
      Error
        (Printf.sprintf "%s did not answer within %.1fs: %s"
           (Server.address_to_string address) timeout_s msg)
    | Error _ ->
      Unix.sleepf 0.025;
      attempt ()
  in
  attempt ()

let await address = await_while ~alive:(fun () -> true) address

let publish ~manifest t =
  match ring (Array.to_list t.configs) with
  | Error _ as e -> e
  | Ok r ->
    let up = ref 0 in
    Array.iteri
      (fun i (cfg : Server.config) ->
        match await_while ~alive:(fun () -> not (exited t i)) cfg.Server.address with
        | Ok client ->
          Client.close client;
          incr up
        | Error msg -> Obs.Log.error ~m:"fleet" msg)
      t.configs;
    Result.map (fun () -> !up) (Shard.save_manifest ~path:manifest r)

type event =
  | Spawned of { shard : int; pid : int }
  | Exited of { shard : int; status : Unix.process_status; restarting : bool }

(* every event also lands in Obs.Log, as the server's do *)
let log_event event =
  let shard_field shard = ("shard", shard_name shard) in
  match event with
  | Spawned { shard; pid } ->
    Obs.Log.info ~m:"fleet"
      ~fields:[ shard_field shard; ("pid", string_of_int pid) ]
      "shard started"
  | Exited { shard; status = Unix.WEXITED 0; _ } ->
    Obs.Log.info ~m:"fleet" ~fields:[ shard_field shard ] "shard exited"
  | Exited { shard; status; restarting } ->
    Obs.Log.warn ~m:"fleet" ~fields:[ shard_field shard ]
      (if restarting then "shard died; restarting"
       else if status = Unix.WEXITED startup_failure then
         "shard failed at startup; retired"
       else "shard died")

type summary = { unexpected : int; retired : int; stopped : bool }

let supervise ?(on_event = ignore) ?(ready = ignore) ~restart t =
  let emit event =
    log_event event;
    on_event event
  in
  let stopped = ref false in
  let forward _ =
    stopped := true;
    Array.iteri (fun i _ -> signal t i Sys.sigterm) t.pids
  in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle forward) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle forward) in
  let restore () =
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int
  in
  Fun.protect ~finally:restore @@ fun () ->
  let unexpected = ref 0 and retired = ref 0 in
  let shard_of pid =
    let found = ref None in
    Array.iteri (fun i p -> if p = pid then found := Some i) t.pids;
    !found
  in
  let reaped shard status =
    let failed = (not !stopped) && status <> Unix.WEXITED 0 in
    let retire = failed && status = Unix.WEXITED startup_failure in
    let restarting = failed && restart && not retire in
    if failed then incr unexpected;
    if retire then incr retired;
    emit (Exited { shard; status; restarting });
    if restarting then begin
      respawn t shard;
      (* a stop signal that landed during the fork missed this pid *)
      if !stopped then signal t shard Sys.sigterm;
      emit (Spawned { shard; pid = t.pids.(shard) })
    end
  in
  Array.iteri (fun shard pid -> if pid > 0 then emit (Spawned { shard; pid })) t.pids;
  ready ();
  (* exits [publish] reaped while it awaited the shards *)
  Array.iteri
    (fun shard status ->
      t.reaped.(shard) <- None;
      Option.iter (reaped shard) status)
    t.reaped;
  while Array.exists (fun pid -> pid > 0) t.pids do
    match Unix.waitpid [] (-1) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
      (* ECHILD: nothing left to reap *)
      Array.fill t.pids 0 (Array.length t.pids) 0
    | pid, status -> (
      match shard_of pid with
      | None -> ()
      | Some shard ->
        t.pids.(shard) <- 0;
        reaped shard status)
  done;
  { unexpected = !unexpected; retired = !retired; stopped = !stopped }
