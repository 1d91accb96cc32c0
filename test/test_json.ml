(* Tests for the Json codec: emit/parse round trips over arbitrary byte
   strings, the strict RFC 8259 grammar (numbers, escapes, trailing
   bytes), a parser that never raises, and byte-identical re-emission of
   the documents the repository writes (run reports, trajectory
   snapshots, Chrome traces). *)

let check = Alcotest.check
let bool = Alcotest.bool

let parses s = Result.is_ok (Json.parse s)

(* every value the generator builds has valid number lexemes; strings
   and keys draw from all 256 byte values *)
let gen_value =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (0 -- 12) in
  let num =
    oneof
      [
        map Json.int int;
        map (Json.float "%.4f") float;
        map (Json.float "%g") float;
        map (Json.float "%.17g") float;
      ]
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        num;
        map (fun s -> Json.Str s) bytes;
      ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n - 1)))
               );
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (0 -- 4) (pair bytes (self (n - 1)))) );
             ])

let arb_value = QCheck.make ~print:Json.to_string gen_value

let prop_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"parse (to_string v) = Ok v" arb_value
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let never_raises s =
  match Json.parse s with
  | Ok _ | Error _ -> true
  | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)

let prop_random_bytes =
  QCheck.Test.make ~count:2000 ~name:"parse never raises on random bytes"
    QCheck.(string_gen Gen.char)
    never_raises

let prop_mutated =
  (* one byte of a valid document overwritten: mostly invalid, never a
     crash *)
  QCheck.Test.make ~count:2000 ~name:"parse never raises on mutated documents"
    QCheck.(triple arb_value small_nat char)
    (fun (v, i, c) ->
      let s = Bytes.of_string (Json.to_string v) in
      Bytes.set s (i mod Bytes.length s) c;
      never_raises (Bytes.to_string s))

let test_all_bytes () =
  let s = String.init 256 Char.chr in
  let text = Json.to_string (Json.Obj [ (s, Json.Str s) ]) in
  check bool "all 256 bytes round-trip" true
    (Json.parse text = Ok (Json.Obj [ (s, Json.Str s) ]));
  check bool "no raw control byte emitted" true
    (String.for_all (fun c -> Char.code c >= 0x20) text)

let test_numbers () =
  List.iter
    (fun s -> check bool ("accepts " ^ s) true (Json.parse s = Ok (Json.Num s)))
    [ "0"; "-0"; "7"; "-12"; "0.5"; "1.25e-3"; "1E+2"; "3e10"; "0.0001" ];
  List.iter
    (fun s -> check bool ("rejects " ^ s) false (parses s))
    [ "01"; "1."; "+1"; "nan"; "0x10"; ".5"; "-"; "1e"; "1.e3"; "inf"; "1_0" ]

let test_strings () =
  let str s = Json.parse s in
  check bool "simple escapes" true
    (str {|"\"\\\/\b\f\n\r\t"|} = Ok (Json.Str "\"\\/\b\012\n\r\t"));
  check bool "\\u escape decodes to UTF-8" true
    (str {|"caf\u00e9"|} = Ok (Json.Str "caf\xc3\xa9"));
  check bool "surrogate pair" true
    (str {|"\ud83d\ude00"|} = Ok (Json.Str "\xf0\x9f\x98\x80"));
  List.iter
    (fun s -> check bool ("rejects " ^ String.escaped s) false (parses s))
    [
      {|"\ud83d"|};
      {|"\ude00"|};
      {|"\x"|};
      {|"\u12"|};
      "\"tab\there\"";
      {|"unterminated|};
      {|'single'|};
    ]

let test_structure () =
  List.iter
    (fun s -> check bool ("rejects " ^ String.escaped s) false (parses s))
    [
      "";
      "   ";
      "1 2";
      "{} x";
      "[1]]";
      {|"a"b|};
      "[1,]";
      "{\"a\":1,}";
      "{\"a\" 1}";
      "{1:2}";
      "tru";
      "nul";
      String.make 10_000 '[';
    ];
  check bool "surrounding whitespace allowed" true
    (Json.parse " \n\t{ \"a\" : [ 1 , true , null ] }\r\n"
    = Ok
        (Json.Obj
           [ ("a", Json.Arr [ Json.Num "1"; Json.Bool true; Json.Null ]) ]))

let test_accessors () =
  let v =
    Json.Obj [ ("a", Json.int 3); ("b", Json.Num "2.5"); ("a", Json.Null) ]
  in
  let get k conv = conv (Json.member k v) in
  check bool "first member wins" true (get "a" Json.to_int = Some 3);
  check bool "absent member is Null" true (Json.member "z" v = Json.Null);
  check bool "member of a non-object" true
    (Json.member "a" (Json.int 1) = Json.Null);
  check bool "to_int refuses a fraction" true (get "b" Json.to_int = None);
  check bool "to_float" true (get "b" Json.to_float = Some 2.5);
  check bool "float of nan is null" true (Json.float "%g" Float.nan = Json.Null)

let report_line =
  lazy
    (Workload.Report.to_json
       (Workload.Report.of_decomposer ~seed:3
          (Workload.Algorithms.find_decomposer "greedy")
          (Workload.Suite.find "grid") ~n:16))

let test_report_prefixes () =
  let line = Lazy.force report_line in
  (match Json.parse line with
  | Ok v ->
      check Alcotest.string "report re-emits unchanged" line (Json.to_string v)
  | Error e -> Alcotest.fail e);
  for k = 0 to String.length line - 1 do
    if parses (String.sub line 0 k) then
      Alcotest.failf "prefix of length %d parsed" k
  done

let test_trajectory_reemits () =
  let lines =
    Workload.Trajectory.read_snapshot_lines "../BENCH_trajectory.json"
  in
  check bool "committed trajectory has snapshots" true (lines <> []);
  List.iteri
    (fun i line ->
      match Json.parse line with
      | Ok v ->
          check Alcotest.string
            (Printf.sprintf "snapshot %d re-emits unchanged" (i + 1))
            line (Json.to_string v)
      | Error e -> Alcotest.failf "snapshot %d: %s" (i + 1) e)
    lines

let test_chrome_control_bytes () =
  let open Congest in
  let sink = Trace.sink () in
  let res = Resource.create () in
  Resource.attach res sink;
  Span.enter (Some sink) "carve\rphase";
  Span.exit (Some sink);
  let text = Resource.chrome_json res in
  (match Json.parse text with
  | Ok doc ->
      check bool "traceEvents present" true
        (Json.to_list (Json.member "traceEvents" doc) <> None)
  | Error e -> Alcotest.fail e);
  match Resource.chrome_of_json text with
  | Ok (ev :: _) ->
      check Alcotest.string "path survives" "carve\rphase" ev.Resource.ce_path
  | Ok [] -> Alcotest.fail "no events"
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "json"
    [
      ( "codec",
        [
          Alcotest.test_case "all byte values" `Quick test_all_bytes;
          Alcotest.test_case "number grammar" `Quick test_numbers;
          Alcotest.test_case "string escapes" `Quick test_strings;
          Alcotest.test_case "structure and trailing bytes" `Quick
            test_structure;
          Alcotest.test_case "accessors" `Quick test_accessors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_random_bytes; prop_mutated ] );
      ( "documents",
        [
          Alcotest.test_case "report line and its prefixes" `Quick
            test_report_prefixes;
          Alcotest.test_case "trajectory snapshots re-emit" `Quick
            test_trajectory_reemits;
          Alcotest.test_case "chrome trace with a control byte" `Quick
            test_chrome_control_bytes;
        ] );
    ]
