(* The server under test: a `spitz serve` child process on a durable
   directory. Group commit acknowledges a write only once it is fsynced, and
   one accept domain makes every connection's handler share one server
   domain. *)

let flags = [ "--sync"; "group"; "--domains"; "1" ]

type t = { pid : int; port : int; out : Unix.file_descr; mutable alive : bool }

let live : t list ref = ref []

let read_line fd =
  let buf = Buffer.create 16 and byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> None
    | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
    | _ -> Buffer.add_char buf (Bytes.get byte 0); go ()
  in
  go ()

let reap t =
  ignore (Unix.waitpid [] t.pid);
  t.alive <- false;
  (try Unix.close t.out with Unix.Unix_error _ -> ());
  live := List.filter (fun c -> c.alive) !live

let signal t s = if t.alive then try Unix.kill t.pid s with Unix.Unix_error _ -> ()

(* The child prints PORT=<n> once it listens; its stdout stays on a pipe
   until it is reaped, so its shutdown line never meets a closed reader. *)
let spawn ~cli dir =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process cli (Array.of_list ((cli :: "serve" :: dir :: flags)))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let port =
    match read_line out_r with
    | Some l when String.length l > 5 && String.sub l 0 5 = "PORT=" ->
      int_of_string_opt (String.sub l 5 (String.length l - 5))
    | _ -> None
  in
  let t = { pid; port = Option.value port ~default:0; out = out_r; alive = true } in
  live := t :: !live;
  if port = None then begin
    signal t Sys.sigkill;
    reap t;
    failwith "spitz serve exited before printing PORT="
  end;
  t

(* Graceful stop: the server drains its handlers and closes the log. *)
let stop t =
  signal t Sys.sigterm;
  reap t

let kill t =
  signal t Sys.sigkill;
  reap t

let kill_all () = List.iter kill !live

(* Peak resident set of the child (VmHWM), in MiB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> go ()
  in
  go ()

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0
      (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
