type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (string_of_int n)
let float fmt x = if Float.is_finite x then Num (Printf.sprintf fmt x) else Null

(* ------------------------------------------------------------------ *)
(* Emitting                                                             *)
(* ------------------------------------------------------------------ *)

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_seq b opening closing add_item items =
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add_item x)
    items;
  Buffer.add_char b closing

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Num lexeme -> Buffer.add_string b lexeme
  | Str s -> add_quoted b s
  | Arr xs -> add_seq b '[' ']' (add b) xs
  | Obj kvs ->
      add_seq b '{' '}'
        (fun (k, v) ->
          add_quoted b k;
          Buffer.add_char b ':';
          add b v)
        kvs

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

exception Bad of string * int

(* deep enough for any document we emit, shallow enough that hostile
   input cannot exhaust the stack *)
let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Bad (what, !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let skip_ws () =
    while !pos < n && String.contains " \t\n\r" s.[!pos] do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let keyword word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail ("expected " ^ word)
  in
  let digits () =
    let start = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then fail "expected a digit"
  in
  (* RFC 8259: optional minus, then 0 or a digit run without a leading
     zero, then an optional fraction, then an optional exponent *)
  let number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    if peek () = '.' then begin
      incr pos;
      digits ()
    end;
    if peek () = 'e' || peek () = 'E' then begin
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ()
    end;
    Num (String.sub s start (!pos - start))
  in
  let hex4 () =
    let is_hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if !pos + 4 > n || not (String.for_all is_hex (String.sub s !pos 4)) then
      fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ String.sub s (!pos - 4) 4)
  in
  let unicode buf =
    let hi = hex4 () in
    let code =
      if hi >= 0xD800 && hi <= 0xDBFF then begin
        if !pos + 2 > n || s.[!pos] <> '\\' || s.[!pos + 1] <> 'u' then
          fail "unpaired surrogate";
        pos := !pos + 2;
        let lo = hex4 () in
        if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
        0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
      end
      else if hi >= 0xDC00 && hi <= 0xDFFF then fail "unpaired surrogate"
      else hi
    in
    Buffer.add_utf_8_uchar buf (Uchar.of_int code)
  in
  let str () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= n then fail "unterminated string";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> unicode buf
          | _ ->
              decr pos;
              fail "bad escape");
          go ()
      | c when Char.code c < 0x20 ->
          decr pos;
          fail "raw control byte in string"
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  (* [items close one] parses "one (, one)* close" after the opener *)
  let items close one =
    skip_ws ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec loop acc =
        let acc = one () :: acc in
        skip_ws ();
        match peek () with
        | ',' ->
            incr pos;
            loop acc
        | c when c = close ->
            incr pos;
            List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      loop []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        Obj
          (items '}' (fun () ->
               skip_ws ();
               let k = str () in
               skip_ws ();
               expect ':';
               (k, value (depth + 1))))
    | '[' ->
        incr pos;
        Arr (items ']' (fun () -> value (depth + 1)))
    | '"' -> Str (str ())
    | 't' -> keyword "true" (Bool true)
    | 'f' -> keyword "false" (Bool false)
    | 'n' -> keyword "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ when !pos >= n -> fail "unexpected end of input"
    | _ -> fail "unexpected byte"
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos < n then fail "trailing bytes after the value";
    v
  with
  | v -> Ok v
  | exception Bad (what, at) -> Error (Printf.sprintf "%s at byte %d" what at)

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let member k = function
  | Obj kvs -> Option.value (List.assoc_opt k kvs) ~default:Null
  | _ -> Null

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_int = function Num s -> int_of_string_opt s | _ -> None
let to_float = function Num s -> float_of_string_opt s | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
