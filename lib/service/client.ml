type error =
  | Timeout of { waited_s : float }
  | Conn_refused of string
  | Conn_closed
  | Torn_frame of string
  | Io of string

let error_to_string = function
  | Timeout { waited_s } ->
    Printf.sprintf "timeout after %.2fs waiting for response" waited_s
  | Conn_refused detail -> "connection refused: " ^ detail
  | Conn_closed -> "connection closed by daemon"
  | Torn_frame detail -> "torn frame: " ^ detail
  | Io detail -> "i/o error: " ^ detail

type t = {
  fd : Unix.file_descr;
  inbox : Buffer.t;
  endpoint : string;
  netfault : Netfault.t option;
  mutable alive : bool;
}

let is_alive t = t.alive

let connect ?netfault address =
  (* a client that fails over writes into dead sockets as a matter of
     course; EPIPE must surface as [Conn_closed], not kill the process *)
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> () (* no SIGPIPE on this platform *));
  let endpoint = Server.address_to_string address in
  let injected =
    match netfault with
    | Some nf -> (
      match Netfault.connect_decision nf ~endpoint with
      | `Refuse -> Some (Conn_refused ("injected connection drop to " ^ endpoint))
      | `Proceed -> None)
    | None -> None
  in
  match injected with
  | Some e -> Error e
  | None -> (
    let refused e fn =
      Error
        (Conn_refused
           (Printf.sprintf "connect %s: %s (%s)" endpoint
              (Unix.error_message e) fn))
    in
    (* a refused connect must not leak the socket it was tried on *)
    let connect_on domain sockaddr =
      match Unix.socket domain Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (e, fn, _) -> refused e fn
      | fd -> (
        match Unix.connect fd sockaddr with
        | () -> Ok { fd; inbox = Buffer.create 512; endpoint; netfault; alive = true }
        | exception Unix.Unix_error (e, fn, _) ->
          (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
          refused e fn)
    in
    match (address : Server.address) with
    | Server.Unix_path path -> connect_on Unix.PF_UNIX (Unix.ADDR_UNIX path)
    | Server.Tcp { host; port } -> (
      match
        if String.equal host "" then Unix.inet_addr_loopback
        else Unix.inet_addr_of_string host
      with
      | inet -> connect_on Unix.PF_INET (Unix.ADDR_INET (inet, port))
      | exception Failure _ ->
        Error (Conn_refused ("not a numeric host address in " ^ endpoint))))

let close t =
  t.alive <- false;
  match Unix.close t.fd with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> ()

(* Write [data.[0 .. limit)], looping over partial writes and EINTR.
   A short [limit] is the torn-write injection: the daemon sees a
   frame with no newline, which stays buffered until the connection
   drops — exactly a peer dying mid-write. *)
let write_all t data limit =
  let rec go off =
    if off >= limit then Ok ()
    else
      match Unix.write_substring t.fd data off (limit - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        t.alive <- false;
        Error Conn_closed
      | exception Unix.Unix_error (e, _, _) ->
        t.alive <- false;
        Error (Io ("send: " ^ Unix.error_message e))
  in
  go 0

let send t request =
  if not t.alive then Error Conn_closed
  else begin
    let data = Proto.request_to_line request ^ "\n" in
    let len = String.length data in
    match Option.map Netfault.send_decision t.netfault with
    | Some (`Torn fraction) ->
      let cut = max 1 (min (len - 1) (int_of_float (fraction *. float_of_int len))) in
      (match write_all t data cut with
      | Ok () | Error _ -> ());
      (* the frame can never complete: kill the connection so the
         daemon discards the partial tail instead of waiting forever *)
      close t;
      Error (Torn_frame "injected torn write")
    | Some `Proceed | None -> write_all t data len
  end

(* One buffered line, if a complete one is already in the inbox. *)
let take_line t =
  let s = Buffer.contents t.inbox in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    let line = String.sub s 0 i in
    Buffer.clear t.inbox;
    Buffer.add_substring t.inbox s (i + 1) (String.length s - i - 1);
    Some line

let read_response ?(timeout_s = 30.) t =
  let started = Obs.Clock.now () in
  let deadline = started +. timeout_s in
  let blackholed =
    match t.netfault with
    | Some nf -> (
      match Netfault.read_decision nf ~endpoint:t.endpoint with
      | `Blackhole -> true
      | `Delay d ->
        Unix.sleepf (Float.min d (Float.max 0. timeout_s));
        false
      | `Proceed -> false)
    | None -> false
  in
  let timeout () =
    Error (Timeout { waited_s = Obs.Clock.elapsed ~since:started })
  in
  if blackholed then begin
    (* the endpoint never answers: burn the deadline deterministically
       so the caller exercises its timeout/failover path *)
    Unix.sleepf (Float.max 0. timeout_s);
    timeout ()
  end
  else begin
    let chunk = Bytes.create 4096 in
    let rec go () =
      match take_line t with
      | Some line -> (
        match Proto.response_of_line line with
        | Ok response -> Ok response
        | Error msg -> Error (Torn_frame ("bad response frame: " ^ msg)))
      | None ->
        let left = deadline -. Obs.Clock.now () in
        if left <= 0. then timeout ()
        else (
          match Unix.select [ t.fd ] [] [] left with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | [], _, _ -> go ()
          | _ :: _, _, _ -> (
            match Unix.read t.fd chunk 0 (Bytes.length chunk) with
            | 0 ->
              t.alive <- false;
              Error Conn_closed
            | n ->
              Buffer.add_subbytes t.inbox chunk 0 n;
              go ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              t.alive <- false;
              Error Conn_closed
            | exception Unix.Unix_error (e, _, _) ->
              t.alive <- false;
              Error (Io ("read: " ^ Unix.error_message e))))
    in
    go ()
  end

let call ?timeout_s t request =
  match send t request with
  | Error _ as e -> e
  | Ok () -> read_response ?timeout_s t
