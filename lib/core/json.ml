(* Minimal JSON used by the self-defined schema interface (paper section 5.1:
   "Spitz supports both SQL and a self-defined JSON schema"). Parsing is a
   plain recursive descent; printing is canonical (object fields in given
   order, no extra whitespace) so values can be hashed stably. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- printing --- *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let print_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let rec to_string = function
  | Null -> "null"
  | Bool true -> "true"
  | Bool false -> "false"
  | Num f -> print_number f
  | Str s -> escape_string s
  | Arr items -> "[" ^ String.concat "," (List.map to_string items) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> escape_string k ^ ":" ^ to_string v) fields)
    ^ "}"

(* The layout of a file meant to be read and diffed: one value per line,
   nested two spaces deeper, empty arrays and objects kept inline — the
   layout of Python's [json.dump(v, f, indent=2)]. *)
let to_string_indented v =
  let buf = Buffer.create 4096 in
  let newline depth =
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (2 * depth) ' ')
  in
  let rec go depth = function
    | Arr [] -> Buffer.add_string buf "[]"
    | Obj [] -> Buffer.add_string buf "{}"
    | Arr items -> block depth '[' ']' (go (depth + 1)) items
    | Obj fields ->
      block depth '{' '}'
        (fun (k, v) ->
           Buffer.add_string buf (escape_string k);
           Buffer.add_string buf ": ";
           go (depth + 1) v)
        fields
    | v -> Buffer.add_string buf (to_string v)
  and block : 'a. int -> char -> char -> ('a -> unit) -> 'a list -> unit =
    fun depth opening closing item items ->
    Buffer.add_char buf opening;
    List.iteri
      (fun i x ->
         if i > 0 then Buffer.add_char buf ',';
         newline (depth + 1);
         item x)
      items;
    newline depth;
    Buffer.add_char buf closing
  in
  go 0 v;
  Buffer.contents buf

(* --- parsing --- *)

type parser_state = { src : string; mutable pos : int }

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let fail p msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

let rec skip_ws p =
  match peek p with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance p;
    skip_ws p
  | _ -> ()

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | _ -> fail p (Printf.sprintf "expected %C" c)

let parse_literal p lit value =
  if p.pos + String.length lit <= String.length p.src
  && String.equal (String.sub p.src p.pos (String.length lit)) lit then begin
    p.pos <- p.pos + String.length lit;
    value
  end
  else fail p (Printf.sprintf "expected %s" lit)

let parse_string p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail p "unterminated string"
    | Some '"' -> advance p
    | Some '\\' ->
      advance p;
      (match peek p with
       | Some '"' -> Buffer.add_char buf '"'; advance p
       | Some '\\' -> Buffer.add_char buf '\\'; advance p
       | Some '/' -> Buffer.add_char buf '/'; advance p
       | Some 'n' -> Buffer.add_char buf '\n'; advance p
       | Some 'r' -> Buffer.add_char buf '\r'; advance p
       | Some 't' -> Buffer.add_char buf '\t'; advance p
       | Some 'b' -> Buffer.add_char buf '\b'; advance p
       | Some 'f' -> Buffer.add_char buf '\012'; advance p
       | Some 'u' ->
         advance p;
         if p.pos + 4 > String.length p.src then fail p "bad unicode escape";
         let hex = String.sub p.src p.pos 4 in
         let code = try int_of_string ("0x" ^ hex) with _ -> fail p "bad unicode escape" in
         (* BMP only; encode as UTF-8 *)
         if code < 0x80 then Buffer.add_char buf (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end;
         p.pos <- p.pos + 4
       | _ -> fail p "bad escape");
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance p;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while (match peek p with Some c when is_num_char c -> true | _ -> false) do
    advance p
  done;
  let text = String.sub p.src start (p.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail p "bad number"

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail p "unexpected end of input"
  | Some '{' ->
    advance p;
    skip_ws p;
    if peek p = Some '}' then begin advance p; Obj [] end
    else begin
      let rec fields acc =
        skip_ws p;
        let key = parse_string p in
        skip_ws p;
        expect p ':';
        let value = parse_value p in
        skip_ws p;
        match peek p with
        | Some ',' -> advance p; fields ((key, value) :: acc)
        | Some '}' -> advance p; Obj (List.rev ((key, value) :: acc))
        | _ -> fail p "expected ',' or '}'"
      in
      fields []
    end
  | Some '[' ->
    advance p;
    skip_ws p;
    if peek p = Some ']' then begin advance p; Arr [] end
    else begin
      let rec items acc =
        let value = parse_value p in
        skip_ws p;
        match peek p with
        | Some ',' -> advance p; items (value :: acc)
        | Some ']' -> advance p; Arr (List.rev (value :: acc))
        | _ -> fail p "expected ',' or ']'"
      in
      items []
    end
  | Some '"' -> Str (parse_string p)
  | Some 't' -> parse_literal p "true" (Bool true)
  | Some 'f' -> parse_literal p "false" (Bool false)
  | Some 'n' -> parse_literal p "null" Null
  | Some _ -> Num (parse_number p)

let of_string src =
  let p = { src; pos = 0 } in
  let v = parse_value p in
  skip_ws p;
  if p.pos <> String.length src then fail p "trailing garbage";
  v

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr l -> Some l | _ -> None
