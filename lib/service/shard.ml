type health = Up | Suspect | Down

(* 0 = up, 1 = suspect, 2 = down: a gauge the Prometheus path can alert
   on without string parsing. *)
let health_rank = function Up -> 0. | Suspect -> 1. | Down -> 2.

type shard = {
  name : string;
  address : Server.address;
  mutable health : health;
  mutable failures : int;
}

type t = {
  members : shard array;  (* manifest order *)
  ring : (int64 * int) array;  (* (point, member index), sorted unsigned *)
}

(* First 8 bytes of the MD5 digest as an unsigned ring point: cheap,
   stable across processes, and plenty uniform for vnode placement. *)
let ring_point s =
  let d = Digest.string s in
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code d.[i]))
  done;
  !v

let make ?(vnodes = 64) members =
  let vnodes = max 1 vnodes in
  match members with
  | [] -> Error "fleet: no shards"
  | members ->
    let names = Hashtbl.create 8 in
    let dup =
      List.find_opt
        (fun s ->
          if Hashtbl.mem names s.name then true
          else begin
            Hashtbl.add names s.name ();
            false
          end)
        members
    in
    (match dup with
    | Some s -> Error ("fleet: duplicate shard name " ^ s.name)
    | None ->
      let members = Array.of_list members in
      let ring =
        Array.init
          (Array.length members * vnodes)
          (fun k ->
            let m = k / vnodes and v = k mod vnodes in
            (ring_point (Printf.sprintf "%s#%d" members.(m).name v), m))
      in
      Array.sort
        (fun (a, _) (b, _) -> Int64.unsigned_compare a b)
        ring;
      Ok { members; ring })

let shards t = Array.to_list t.members

let find t name =
  Array.find_opt (fun s -> String.equal s.name name) t.members

(* Index of the first ring point at or clockwise after [point]. *)
let ring_successor t point =
  let n = Array.length t.ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst t.ring.(mid)) point < 0 then lo := mid + 1
    else hi := mid
  done;
  if !lo >= n then 0 else !lo

let route t ~key =
  let n = Array.length t.ring in
  let total = Array.length t.members in
  let seen = Array.make total false in
  let start = ring_successor t (ring_point key) in
  let order = ref [] in
  let found = ref 0 in
  let i = ref 0 in
  while !found < total && !i < n do
    let _, m = t.ring.((start + !i) mod n) in
    if not seen.(m) then begin
      seen.(m) <- true;
      order := t.members.(m) :: !order;
      incr found
    end;
    incr i
  done;
  List.rev !order

let health_gauge s =
  Obs.Metrics.gauge ~labels:[ ("shard", s.name) ] "service.shard.health"

let set_health s h =
  s.health <- h;
  Obs.Metrics.set (health_gauge s) (health_rank h)

let mark_ok s =
  s.failures <- 0;
  set_health s Up

let mark_failed ?(down_after = 2) s =
  s.failures <- s.failures + 1;
  set_health s (if s.failures >= max 1 down_after then Down else Suspect)

(* {2 Manifest} *)

let address_of_string str =
  let prefix p =
    String.length str > String.length p
    && String.equal (String.sub str 0 (String.length p)) p
  in
  let rest p = String.sub str (String.length p) (String.length str - String.length p) in
  if prefix "unix:" then Ok (Server.Unix_path (rest "unix:"))
  else if prefix "tcp:" then begin
    let hp = rest "tcp:" in
    match String.rindex_opt hp ':' with
    | None -> Error ("fleet: tcp address without port: " ^ str)
    | Some i -> (
      let host = String.sub hp 0 i in
      let port = String.sub hp (i + 1) (String.length hp - i - 1) in
      match int_of_string_opt port with
      | Some port when port > 0 && port < 65536 ->
        Ok (Server.Tcp { host; port })
      | Some _ | None -> Error ("fleet: bad tcp port in " ^ str))
  end
  else Error ("fleet: address must be unix:PATH or tcp:HOST:PORT: " ^ str)

let manifest_json t =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "fleet.v1");
      ( "shards",
        Obs.Json.Arr
          (Array.to_list t.members
          |> List.map (fun s ->
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.Str s.name);
                     ("address", Obs.Json.Str (Server.address_to_string s.address));
                   ])) );
    ]

let save_manifest ~path t =
  Report.Fsio.write_atomic ~path (fun oc ->
      output_string oc (Obs.Json.to_string (manifest_json t));
      output_char oc '\n')

let str_member name json =
  match Obs.Json.member name json with
  | Some (Obs.Json.Str s) -> Some s
  | _ -> None

let shard_of_json json =
  match (str_member "name" json, str_member "address" json) with
  | Some name, Some addr -> (
    match address_of_string addr with
    | Ok address -> Ok { name; address; health = Up; failures = 0 }
    | Error _ as e -> e)
  | _ -> Error "fleet: shard entry needs string name and address"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in_noerr ic;
  s

let load_manifest ?vnodes ~path () =
  match read_file path with
  | exception Sys_error msg -> Error ("fleet manifest: " ^ msg)
  | content -> (
    match Obs.Json.of_string content with
    | exception Obs.Json.Parse_error msg ->
      Error ("fleet manifest: unparsable: " ^ msg)
    | json -> (
      match (str_member "schema" json, Obs.Json.member "shards" json) with
      | Some "fleet.v1", Some (Obs.Json.Arr entries) -> (
        let rec build acc = function
          | [] -> make ?vnodes (List.rev acc)
          | e :: rest -> (
            match shard_of_json e with
            | Ok s -> build (s :: acc) rest
            | Error _ as err -> err)
        in
        build [] entries)
      | Some "fleet.v1", _ -> Error "fleet manifest: missing shards array"
      | Some other, _ -> Error ("fleet manifest: unknown schema " ^ other)
      | None, _ -> Error "fleet manifest: missing schema tag"))
