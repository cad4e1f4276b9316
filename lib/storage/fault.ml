exception Crash of string

(* name -> remaining hits to survive before raising *)
let armed_points : (string, int) Hashtbl.t = Hashtbl.create 8

let hit name =
  if Hashtbl.length armed_points > 0 then
    match Hashtbl.find_opt armed_points name with
    | None -> ()
    | Some 0 ->
      Hashtbl.remove armed_points name;
      raise (Crash name)
    | Some n -> Hashtbl.replace armed_points name (n - 1)

let hit_io name =
  match hit name with
  | () -> ()
  | exception Crash _ -> raise (Unix.Unix_error (Unix.EIO, name, ""))

let arm ?(after = 0) name = Hashtbl.replace armed_points name after
let reset () = Hashtbl.clear armed_points
let armed name = Hashtbl.mem armed_points name

(* --- file corruption helpers --- *)

let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)

let truncate_file path n =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd n)

let with_byte path at f =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
       let b = Bytes.create 1 in
       ignore (Unix.lseek fd at Unix.SEEK_SET);
       if Unix.read fd b 0 1 <> 1 then invalid_arg "Fault: offset past end of file";
       Bytes.set b 0 (f (Bytes.get b 0));
       ignore (Unix.lseek fd at Unix.SEEK_SET);
       ignore (Unix.write fd b 0 1))

let flip_bit path ~byte ~bit =
  with_byte path byte (fun c -> Char.chr (Char.code c lxor (1 lsl (bit land 7))))
