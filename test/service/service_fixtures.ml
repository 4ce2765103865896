(* Helpers the service suite and both soak harnesses share. *)

(* a path in the temp dir that does not exist yet *)
let fresh_path suffix =
  let path = Filename.temp_file "svc" suffix in
  Sys.remove path;
  path

(* remove a fleet's directory of per-shard files *)
let remove_dir dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Sys.rmdir dir with Sys_error _ -> ()

(* Count ack events per seq straight off the journal file: [recover]
   collapses duplicates by design, the at-most-once assertion must not. *)
let ack_counts path =
  let counts = Hashtbl.create 64 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       match Obs.Json.of_string line with
       | json ->
         if Obs.Json.member "ev" json = Some (Obs.Json.Str "acked") then (
           match Option.bind (Obs.Json.member "seq" json) Obs.Json.to_float with
           | Some seq ->
             let seq = int_of_float seq in
             Hashtbl.replace counts seq
               (1 + Option.value ~default:0 (Hashtbl.find_opt counts seq))
           | None -> ())
       | exception Obs.Json.Parse_error _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  counts
