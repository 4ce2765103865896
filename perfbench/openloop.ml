(* Open-loop load over one pipelined connection: every request is
   written when it falls due, whether or not earlier ones have been
   answered, and its latency runs from its due time — so a stall in
   the daemon is charged to every request that arrives during it.

   The loop busy-polls (select with a zero timeout) and does no
   decoding while it measures: response frames are stamped on arrival
   and parsed after the phase ends. It owns one core that never idles,
   so waking the generator adds no lag of its own — on a virtual
   machine an idle core can take milliseconds to wake. Writes are
   non-blocking through an outbox, so a daemon that stops reading
   cannot stall the schedule. *)

type conn = { fd : Unix.file_descr; inbox : Buffer.t; outbox : Buffer.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; inbox = Buffer.create 65536; outbox = Buffer.create 65536 }

let close c = Unix.close c.fd

type phase = {
  items : Stream.item array;
  due : float array;  (** absolute due times *)
  lag : float array;  (** seconds the generator wrote each request late *)
  responses : (float * string) list;  (** arrival time, frame; in arrival order *)
  backlog : int;  (** requests unanswered when the last one was written *)
}

let flush_outbox c =
  let data = Buffer.contents c.outbox in
  let len = String.length data in
  let rec go off =
    if off >= len then off
    else
      match Unix.write_substring c.fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> off
  in
  let off = go 0 in
  Buffer.clear c.outbox;
  if off < len then Buffer.add_substring c.outbox data off (len - off)

(* Complete frames read so far, each stamped [now]. *)
let read_frames c now =
  let chunk = Bytes.create 65536 in
  let rec read () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "daemon closed the connection"
    | n ->
      Buffer.add_subbytes c.inbox chunk 0 n;
      if n = Bytes.length chunk then read ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  read ();
  let s = Buffer.contents c.inbox in
  let rec split start acc =
    match String.index_from_opt s start '\n' with
    | Some i -> split (i + 1) ((now, String.sub s start (i - start)) :: acc)
    | None ->
      Buffer.clear c.inbox;
      Buffer.add_substring c.inbox s start (String.length s - start);
      acc
  in
  split 0 []

(* Send [schedule] (offsets from now, ascending) and wait up to
   [drain_s] after the last due time for the answers. [actions] fire
   at their offsets (the self-test pauses the daemon with them). *)
let run ?(actions = []) c ~drain_s (schedule : (float * Stream.item) array) =
  let n = Array.length schedule in
  let t0 = Obs.Clock.now () +. 0.002 in
  let due = Array.map (fun (at, _) -> t0 +. at) schedule in
  let lag = Array.make n 0. in
  let responses = ref [] in
  let answered = ref 0 in
  let backlog = ref 0 in
  let actions = ref (List.map (fun (at, f) -> (t0 +. at, f)) actions) in
  let last_due = if n = 0 then t0 else due.(n - 1) in
  let deadline = last_due +. drain_s in
  let next = ref 0 in
  let finished () = !next >= n && !answered >= n in
  while (not (finished ())) && Obs.Clock.now () < deadline do
    let now = Obs.Clock.now () in
    (match !actions with
    | (at, f) :: rest when at <= now ->
      actions := rest;
      f ()
    | _ -> ());
    while !next < n && due.(!next) <= now do
      let _, item = schedule.(!next) in
      Buffer.add_string c.outbox item.Stream.line;
      Buffer.add_char c.outbox '\n';
      lag.(!next) <- now -. due.(!next);
      incr next;
      if !next = n then backlog := !next - !answered
    done;
    if Buffer.length c.outbox > 0 then flush_outbox c;
    match Unix.select [ c.fd ] [] [] 0. with
    | readable, _, _ when readable <> [] ->
      let frames = read_frames c (Obs.Clock.now ()) in
      answered := !answered + List.length frames;
      responses := List.rev_append frames !responses
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter (fun (_, f) -> f ()) !actions;
  { items = Array.map snd schedule; due; lag; responses = List.rev !responses; backlog = !backlog }

(* Closed loop: keep [window] requests in flight, drawing each next
   request from [next] as an answer comes back, until [duration]
   seconds pass or [limit] requests are sent; then wait up to [drain_s]
   for the rest. A request's due time is when it was written, so
   latencies here include queueing behind the window. *)
let saturate c ~window ~duration ~limit ~drain_s next =
  let stop = Obs.Clock.now () +. duration in
  let items = ref [] and sent = ref [] and n = ref 0 in
  let answered = ref 0 and responses = ref [] in
  let send now =
    let item = next () in
    Buffer.add_string c.outbox item.Stream.line;
    Buffer.add_char c.outbox '\n';
    items := item :: !items;
    sent := now :: !sent;
    incr n
  in
  let now = Obs.Clock.now () in
  for _ = 1 to min window limit do send now done;
  flush_outbox c;
  let deadline = stop +. drain_s in
  while (!answered < !n || Obs.Clock.now () < stop) && Obs.Clock.now () < deadline do
    let writers = if Buffer.length c.outbox > 0 then [ c.fd ] else [] in
    (match Unix.select [ c.fd ] writers [] 0.01 with
    | readable, _, _ when readable <> [] ->
      let now = Obs.Clock.now () in
      let frames = read_frames c now in
      answered := !answered + List.length frames;
      responses := List.rev_append frames !responses;
      List.iter (fun _ -> if now < stop && !n < limit then send now) frames
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if Buffer.length c.outbox > 0 then flush_outbox c
  done;
  {
    items = Array.of_list (List.rev !items);
    due = Array.of_list (List.rev !sent);
    lag = [||];
    responses = List.rev !responses;
    backlog = !n - !answered;
  }

type answer = { item : Stream.item; latency_s : float option; response : Service.Proto.response option }

(* Match every request with its response by id. *)
let answers phase =
  let first_seq = if Array.length phase.items = 0 then 0 else phase.items.(0).Stream.seq in
  let slots = Array.make (Array.length phase.items) None in
  List.iter
    (fun (at, line) ->
      match Service.Proto.response_of_line line with
      | Ok
          (( Service.Proto.Solved { id; _ }
           | Service.Proto.Degraded { id; _ }
           | Service.Proto.Shed { id; _ }
           | Service.Proto.Rejected { id = Some id; _ } ) as r) -> (
        match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
        | Some seq when seq - first_seq >= 0 && seq - first_seq < Array.length slots ->
          slots.(seq - first_seq) <- Some (at, r)
        | _ -> ())
      | Ok _ | Error _ -> ())
    phase.responses;
  Array.mapi
    (fun i item ->
      match slots.(i) with
      | Some (at, r) -> { item; latency_s = Some (at -. phase.due.(i)); response = Some r }
      | None -> { item; latency_s = None; response = None })
    phase.items
