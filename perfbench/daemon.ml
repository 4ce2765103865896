(* The solve daemon under test: `subsidization serve` with its default
   admission queue, spawned from the CLI binary and stopped (SIGTERM,
   then SIGKILL) before the benchmark exits. *)

type t = {
  pid : int;
  socket : string;
  log : Unix.file_descr;  (** read end of the daemon's stderr *)
  setup_s : float;
}

let live = ref []

let reap pid =
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.01;
      wait (tries - 1)
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait 500

(* Stop the daemon and pass on what it logged after start-up. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap d.pid;
  live := List.filter (fun p -> p <> d.pid) !live;
  let ic = Unix.in_channel_of_descr d.log in
  prerr_string (In_channel.input_all ic);
  close_in ic

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Spawn and wait for the first Pong; [setup_s] runs from the spawn.
   The daemon logs at info level into a pipe, and the benchmark blocks
   on that pipe until the "listening" line arrives: polling the socket
   instead would compete with the starting daemon for the host's two
   vCPUs. *)
let spawn ~cli ~dir ~n ~jobs ~journal =
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" n) in
  let journal_args =
    if journal then [ "--journal"; Filename.concat dir (Printf.sprintf "j%d.jsonl" n) ]
    else []
  in
  let args =
    Array.of_list
      ([ cli; "serve"; "--socket"; socket; "--jobs"; string_of_int jobs; "--log-level"; "info" ]
      @ journal_args)
  in
  let log, log_w = Unix.pipe ~cloexec:true () in
  let spawned = Obs.Clock.now () in
  let pid = Unix.create_process cli args Unix.stdin Unix.stderr log_w in
  Unix.close log_w;
  live := pid :: !live;
  let seen = Buffer.create 256 and chunk = Bytes.create 256 in
  let rec wait () =
    let left = 30. -. Obs.Clock.elapsed ~since:spawned in
    if left <= 0. then failwith "daemon not ready after 30s";
    match Unix.select [ log ] [] [] left with
    | [], _, _ -> wait ()
    | _ -> (
      match Unix.read log chunk 0 (Bytes.length chunk) with
      | 0 -> failwith ("daemon exited during start-up: " ^ Buffer.contents seen)
      | k ->
        Buffer.add_subbytes seen chunk 0 k;
        if not (Measure.contains (Buffer.contents seen) "server: listening") then wait ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  let setup_s =
    match Service.Client.connect (Service.Server.Unix_path socket) with
    | Error e -> failwith ("daemon connect: " ^ Service.Client.error_to_string e)
    | Ok client -> (
      let pong = Service.Client.call ~timeout_s:10. client Service.Proto.Ping in
      Service.Client.close client;
      match pong with
      | Ok Service.Proto.Pong -> Obs.Clock.elapsed ~since:spawned
      | _ -> failwith "daemon did not answer ping")
  in
  { pid; socket; log; setup_s }

let metrics d =
  match Service.Loadgen.fetch_metrics ~timeout_s:10. (Service.Server.Unix_path d.socket) with
  | Ok json -> json
  | Error msg -> failwith ("metrics frame: " ^ msg)

(* One series field out of an obs.metrics.v1 document (summed over
   label sets). *)
let series json ~name ~field =
  match Option.bind (Obs.Json.member "series" json) Obs.Json.to_list with
  | None -> 0.
  | Some series ->
    List.fold_left
      (fun acc s ->
        match (Obs.Json.member "name" s, Obs.Json.member field s) with
        | Some (Obs.Json.Str n), Some (Obs.Json.Num v) when String.equal n name -> acc +. v
        | _ -> acc)
      0. series
