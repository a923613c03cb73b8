(* Driving a `mobisim serve` daemon over its socket: start and stop it,
   submit scenario files, read its metrics op, parse responses. *)

module Json = Obs.Json
module Client = Service.Daemon.Client

type daemon = {
  pid : int;
  root : string;
  socket : string;
}

(* Daemons still running; killed on any exit path so a failed run never
   leaves one behind. *)
let live : daemon list ref = ref []

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let request d line =
  match Client.request ~socket_path:d.socket line with
  | Ok s -> s
  | Error e -> failwith e

let op name = Json.to_string (Json.Assoc [ ("op", Json.String name) ])

(* Start a daemon on a fresh root and wait until it answers health;
   returns it with the start-to-healthy wall time in ns. *)
let start ~mobisim ~root ~socket ~jobs =
  rm_rf root;
  let t0 = Obs.Clock.now_ns () in
  let pid =
    Unix.create_process mobisim
      [|
        mobisim; "serve"; "--quiet"; "--root"; root; "--socket"; socket;
        "--jobs"; string_of_int jobs;
      |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; root; socket } in
  live := d :: !live;
  let deadline = t0 + 60_000_000_000 in
  let rec wait () =
    match Client.request ~socket_path:socket (op "health") with
    | Ok _ -> ()
    | Error e ->
        if Obs.Clock.now_ns () > deadline then failwith ("daemon never healthy: " ^ e);
        Unix.sleepf 0.0002;
        wait ()
  in
  wait ();
  (d, Obs.Clock.now_ns () - t0)

let stop d =
  ignore (request d (op "shutdown"));
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  rm_rf d.root

let submit d text =
  request d (Json.to_string (Json.Assoc [ ("op", Json.String "submit"); ("text", Json.String text) ]))

let metrics d =
  match Json.parse (request d (op "metrics")) with
  | Ok j -> j
  | Error e -> failwith ("metrics op: " ^ e)

(* Peak resident set of a process, in kB, from /proc. *)
let vmhwm_kb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let lines = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all) in
  match List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l) lines with
  | None -> failwith ("no VmHWM in " ^ path)
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" Fun.id

(* --- response parsing ----------------------------------------------------- *)

type line = {
  cell : int;
  trial : int;
  seed : int;
  hash : string;
  payload : string;
  steps : int;
  informed : int;
}

let int_field name j =
  match Json.member name j with Some (Json.Int n) -> n | _ -> failwith ("missing " ^ name)

(* The header's run count and the result lines of a submit response. *)
let parse_response resp =
  match String.split_on_char '\n' resp with
  | [] -> failwith "empty response"
  | header :: rest ->
      let h = match Json.parse header with Ok j -> j | Error e -> failwith e in
      (match Json.member "ok" h with
      | Some (Json.Bool true) -> ()
      | _ -> failwith ("submit refused: " ^ header));
      let lines =
        List.filter_map
          (fun l ->
            if l = "" then None
            else
              let j = match Json.parse l with Ok j -> j | Error e -> failwith e in
              let result = match Json.member "result" j with Some r -> r | None -> failwith "no result" in
              Some
                {
                  cell = int_field "cell" j;
                  trial = int_field "trial" j;
                  seed = int_field "seed" j;
                  hash = (match Json.member "hash" j with Some (Json.String s) -> s | _ -> failwith "no hash");
                  payload = Json.to_string result;
                  steps = int_field "steps" result;
                  informed = int_field "informed" result;
                })
          rest
      in
      (int_field "runs" h, lines)
