open E2e_core
module CR = Cluster.Repair

let check_float = Alcotest.(check (float 1e-12))

let test_nearest_rank () =
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  check_float "median" 3.0 (Stat.median xs);
  check_float "q1" 2.0 (Stat.q1 xs);
  check_float "q3" 4.0 (Stat.q3 xs);
  check_float "p99 of five samples is the largest" 5.0 (Stat.quantile 0.99 xs);
  check_float "even count takes the lower middle" 2.0
    (Stat.median [ 4.0; 1.0; 3.0; 2.0 ]);
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  check_float "q1 of 1..100" 25.0 (Stat.q1 (upto 100));
  check_float "q3 of 1..100" 75.0 (Stat.q3 (upto 100));
  check_float "p99 of 1..100" 99.0 (Stat.quantile 0.99 (upto 100));
  check_float "p99 of 1..400 leaves four beyond it" 396.0
    (Stat.quantile 0.99 (upto 400));
  check_float "spread" 1.0 (Stat.spread [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "spread of a zero median" 0.0 (Stat.spread [ 0.0; 0.0; 1.0 ]);
  Alcotest.check_raises "no samples" (Invalid_argument "Stat.quantile: no samples")
    (fun () -> ignore (Stat.median []))

(* The kernel must not allocate: a change to the GC settings would
   otherwise move it together with the workloads it scales. Only the
   boxed floats of its two clock reads may be counted. *)
let test_speed () =
  ignore (Speed.kernel ());
  let w0 = Gc.minor_words () in
  let k = Speed.kernel () in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "kernel takes time" true (k > 0.0);
  Alcotest.(check bool) (Printf.sprintf "kernel allocates %.0f words" words) true (words < 64.0);
  check_float "a call as slow as the kernel reads as the reference" Speed.reference
    (Speed.scale ~kernel:k k);
  check_float "a twice slower machine halves the reading" 0.5
    (Speed.scale ~kernel:(2.0 *. Speed.reference) 1.0)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Compare.to_string v))
    ( = )

let classify ?(lower_is_better = true) ~bound a b =
  Compare.classify ~lower_is_better ~bound a b

let test_compare_rule () =
  let a = [ 10.0; 10.2; 9.9; 10.1 ] and b = [ 8.0; 8.1; 7.9; 8.05 ] in
  Alcotest.check verdict "clear win" Compare.Better (classify ~bound:0.1 a b);
  Alcotest.check verdict "clear loss" Compare.Worse (classify ~bound:0.1 b a);
  Alcotest.check verdict "within the bound" Compare.Same
    (classify ~bound:0.1 a [ 10.3; 10.4; 10.2; 10.5 ]);
  let wide = [ 10.0; 14.0; 8.0; 12.0 ] in
  Alcotest.check verdict "spread wider than the bound" Compare.Unresolved
    (classify ~bound:0.1 wide [ 11.0; 13.0; 9.0; 12.0 ]);
  Alcotest.check verdict "every B run beats every A run" Compare.Better
    (classify ~bound:0.1 wide [ 5.0; 6.0; 7.0; 4.0 ]);
  let five = [ 5.0; 5.0; 5.0 ] in
  Alcotest.check verdict "bound-0 count, one more" Compare.Worse
    (classify ~bound:0.0 five [ 6.0; 6.0; 6.0 ]);
  Alcotest.check verdict "bound-0 count, unchanged" Compare.Same
    (classify ~bound:0.0 five five);
  Alcotest.check verdict "higher is better" Compare.Worse
    (classify ~lower_is_better:false ~bound:0.0 five [ 4.0; 4.0; 4.0 ])

(* A results.json with one workload: end-to-end samples, per-layer
   values and the overall fail rate. *)
let results ?(fail_rate = 0.0) ~e2e ~layers () =
  Json.Obj
    [
      ("fail_rate", Json.Num fail_rate);
      ( "workloads",
        Json.Arr
          [
            Json.Obj
              [
                ("name", Json.Str "w");
                ( "end_to_end",
                  Json.Obj
                    (List.map
                       (fun (k, vs) ->
                         (k, Json.Obj [ ("values", Json.Arr (List.map (fun v -> Json.Num v) vs)) ]))
                       e2e) );
                ( "per_layer",
                  Json.Obj (List.map (fun (k, v) -> (k, Json.Obj [ ("value", Json.Num v) ])) layers)
                );
              ];
          ] );
    ]

let test_compare_rows () =
  let bounds = [ ("run_s", true, 0.1) ] in
  let verdicts a b =
    List.map
      (fun (r : Compare.row) -> (r.workload ^ "/" ^ r.metric, Compare.to_string r.verdict))
      (Compare.rows ~bounds a b)
  in
  let base =
    results
      ~e2e:[ ("run_s", [ 1.0; 1.01; 0.99 ]) ]
      ~layers:[ ("quality.colors", 3.0); ("congest.rounds", 0.0) ]
      ()
  in
  let rows = Alcotest.(list (pair string string)) in
  Alcotest.check rows "unchanged; a count 0 on both sides is left out"
    [ ("w/run_s", "same"); ("w/quality.colors", "same"); ("all/fail_rate", "same") ]
    (verdicts base base);
  Alcotest.check rows "a row B lacks is worse"
    [ ("w/run_s", "worse"); ("w/quality.colors", "worse"); ("all/fail_rate", "worse") ]
    (verdicts base (results ~fail_rate:1.0 ~e2e:[] ~layers:[] ()));
  Alcotest.check rows "one more color is worse"
    [ ("w/run_s", "same"); ("w/quality.colors", "worse"); ("all/fail_rate", "same") ]
    (verdicts base
       (results ~e2e:[ ("run_s", [ 1.0; 1.01; 0.99 ]) ] ~layers:[ ("quality.colors", 4.0) ] ()));
  Alcotest.check rows "a rising fail rate is worse"
    [ ("w/run_s", "same"); ("w/quality.colors", "same"); ("all/fail_rate", "worse") ]
    (verdicts base
       (results ~fail_rate:0.01 ~e2e:[ ("run_s", [ 1.0; 1.01; 0.99 ]) ]
          ~layers:[ ("quality.colors", 3.0) ] ()))

let test_churn_schedule () =
  let g = Dsgraph.Gen.grid 8 8 in
  let s1 = Churn.schedule ~seed:7 ~steps:30 g in
  let s2 = Churn.schedule ~seed:7 ~steps:30 g in
  Alcotest.(check bool) "same seed, identical deltas" true (s1 = s2);
  Alcotest.(check bool) "another seed, other deltas" false
    (s1 = Churn.schedule ~seed:8 ~steps:30 g);
  let final = Array.fold_left CR.step (CR.init g) s1 in
  Alcotest.(check bool) "every delta accepted; nodes still up" true
    (Dsgraph.Mask.count (CR.survivors final) > 2);
  Array.iter
    (fun d ->
      Alcotest.(check int) "one crash" 1 (List.length d.CR.crash);
      Alcotest.(check int) "one deletion" 1 (List.length d.CR.del_edges);
      Alcotest.(check int) "one insertion" 1 (List.length d.CR.add_edges))
    s1

let smoke trace (w : Workloads.t) () =
  let r =
    Measure.run ~size:Workloads.tiny ~seed:7 ~seconds:0.0 ~trace ~dir:"." w
  in
  List.iter prerr_endline r.Measure.failures;
  Alcotest.(check int) "no failed operation" 0 r.Measure.failed;
  Alcotest.(check bool) "operations attempted" true (r.Measure.attempted >= 3);
  let names = List.map (fun (k, _, _) -> k) r.Measure.metrics in
  let expected = List.map fst (if trace then Measure.per_layer else Measure.end_to_end) in
  Alcotest.(check (list string)) "every metric reported" expected names;
  if not trace then
    List.iter
      (fun (k, v, _) -> Alcotest.(check bool) (k ^ " is positive") true (v > 0.0))
      r.Measure.metrics
  else
    let events =
      Json.to_list
        (Option.value
           (Option.bind r.Measure.chrome (Json.member "traceEvents"))
           ~default:Json.Null)
    in
    Alcotest.(check bool) "spans recorded" true (events <> [])

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "quote \" backslash \\ newline \n tab \t ctl \001 é");
        ("xs", Json.Arr [ Json.Num 1.0; Json.Num 0.1; Json.Num (-2.5e-7); Json.Null ]);
        ("b", Json.Bool false);
        ("o", Json.Obj []);
      ]
  in
  Alcotest.(check bool) "parse inverts to_string" true
    (Json.parse (Json.to_string v) = Ok v);
  Alcotest.(check bool) "trailing bytes rejected" true
    (Result.is_error (Json.parse "{} x"));
  Alcotest.(check bool) "unterminated string rejected" true
    (Result.is_error (Json.parse "\"abc"))

(* BENCHMARK.json and the benchmark name the same workloads and metrics *)
let test_benchmark_json () =
  let j =
    match Json.read_file "../../../BENCHMARK.json" with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let field k obj =
    Option.get (Option.bind (Json.member k obj) Json.to_str)
  in
  let listed key =
    List.map
      (fun m -> (field "name" m, field "unit" m))
      (Json.to_list (Option.get (Json.member key j)))
  in
  let sorted = List.sort compare in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" (sorted Measure.end_to_end)
    (sorted (listed "end_to_end"));
  Alcotest.check pairs "per_layer" (sorted Measure.per_layer) (sorted (listed "per_layer"));
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    (List.map (field "name") (Json.to_list (Option.get (Json.member "workloads" j))))

let () =
  Alcotest.run "e2e"
    [
      ( "stat",
        [ Alcotest.test_case "nearest-rank median, quartiles, p99" `Quick test_nearest_rank ] );
      ("speed", [ Alcotest.test_case "reference kernel and scaling" `Quick test_speed ]);
      ( "compare",
        [
          Alcotest.test_case "verdict rule" `Quick test_compare_rule;
          Alcotest.test_case "rows of two results files" `Quick test_compare_rows;
        ] );
      ("churn", [ Alcotest.test_case "seeded schedule" `Quick test_churn_schedule ]);
      ("json", [ Alcotest.test_case "round trip" `Quick test_json_roundtrip ]);
      ( "benchmark",
        [ Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json ] );
      ( "smoke",
        List.map
          (fun (w : Workloads.t) ->
            Alcotest.test_case (w.name ^ " tiny") `Quick (smoke false w))
          Workloads.all
        @ [
            Alcotest.test_case "grid-churn tiny, traced" `Quick
              (smoke true Workloads.grid_churn);
          ] );
    ]
