(* The JSON the benchmark reads and writes: its result lines, the
   results file, the Chrome traces and BENCHMARK.json. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Integral values print without a fraction; others with every digit. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> number x
  | Str s -> escape s
  | Arr xs -> "[" ^ String.concat "," (List.map to_string xs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> escape k ^ ":" ^ to_string v) kvs)
      ^ "}"

exception Bad of string

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let fail what = raise (Bad (Printf.sprintf "%s at byte %d" what !i)) in
  let peek () = if !i < n then s.[!i] else '\000' in
  let rec skip () =
    if !i < n && String.contains " \t\r\n" s.[!i] then begin
      incr i;
      skip ()
    end
  in
  let expect c =
    skip ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr i
  in
  let literal word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word
    then begin
      i := !i + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> ()
      | '\\' ->
          if !i >= n then fail "unterminated escape";
          let e = s.[!i] in
          incr i;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !i + 4 > n then fail "short \\u escape";
              let code =
                match int_of_string_opt ("0x" ^ String.sub s !i 4) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              i := !i + 4;
              Buffer.add_utf_8_uchar b
                (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let num () =
    let start = !i in
    while !i < n && String.contains "+-0123456789.eE" s.[!i] do
      incr i
    done;
    match float_of_string_opt (String.sub s start (!i - start)) with
    | Some x -> x
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr i;
        skip ();
        if peek () = '}' then begin
          incr i;
          Obj []
        end
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr i;
                fields ((k, v) :: acc)
            | '}' ->
                incr i;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | '[' ->
        incr i;
        skip ();
        if peek () = ']' then begin
          incr i;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr i;
                items (v :: acc)
            | ']' ->
                incr i;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (num ())
  in
  match
    let v = value () in
    skip ();
    if !i < n then fail "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_float = function Num x -> Some x | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr xs -> xs | _ -> []

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> (
      match parse text with
      | Ok v -> Ok v
      | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e
