(* Tests for Workload.Stats: median/MAD summaries, the significance
   gate the trajectory comparator and diff engine share, the sampling
   plan, and the environment-fingerprint JSON round-trip. *)

module S = Workload.Stats

let check = Alcotest.check

let feq msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

(* ------------------------------------------------------------------ *)

let test_summarize_odd () =
  let s = S.summarize [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  check Alcotest.int "runs" 5 s.S.runs;
  feq "median" 3.0 s.S.median;
  (* deviations from 3 are [2;1;0;1;2] -> sorted median 1 *)
  feq "mad" 1.0 s.S.mad;
  feq "lo" 1.0 s.S.lo;
  feq "hi" 5.0 s.S.hi

let test_summarize_even () =
  let s = S.summarize [ 4.0; 1.0; 3.0; 2.0 ] in
  feq "median interpolates" 2.5 s.S.median;
  (* deviations [1.5;0.5;0.5;1.5] -> median 1.0 *)
  feq "mad interpolates" 1.0 s.S.mad

let test_summarize_singleton () =
  let s = S.summarize [ 7.0 ] in
  feq "median is the sample" 7.0 s.S.median;
  feq "mad is zero" 0.0 s.S.mad

let test_summarize_empty_raises () =
  Alcotest.check_raises "empty sample list"
    (Invalid_argument "Stats.summarize: empty sample list") (fun () ->
      ignore (S.summarize []))

let test_threshold () =
  (* mad = 0: pure 10% relative gate *)
  feq "relative gate" 10.0 (S.threshold ~mad:0.0 100.0);
  (* large mad: the k*MAD term dominates *)
  feq "mad gate" 30.0 (S.threshold ~mad:10.0 100.0);
  (* negative baseline: gate on its magnitude *)
  feq "magnitude of baseline" 10.0 (S.threshold ~mad:0.0 (-100.0));
  feq "custom rel and k" 50.0 (S.threshold ~rel:0.5 ~k:1.0 ~mad:10.0 100.0)

let test_exceeds_one_sided () =
  let bool = Alcotest.bool in
  check bool "past the gate" true (S.exceeds ~mad:0.0 ~baseline:100.0 110.5);
  check bool "the fence itself" false (S.exceeds ~mad:0.0 ~baseline:100.0 110.0);
  check bool "improvement never flags" false
    (S.exceeds ~mad:0.0 ~baseline:100.0 50.0);
  check bool "mad widens" false (S.exceeds ~mad:10.0 ~baseline:100.0 125.0);
  check bool "past the widened gate" true
    (S.exceeds ~mad:10.0 ~baseline:100.0 131.0)

let test_measure_counts_runs () =
  let calls = ref 0 in
  let plan = { S.warmup = 2; samples = 3; settle = false } in
  let v, s = S.measure ~plan (fun () -> incr calls; !calls) in
  check Alcotest.int "warmup + samples executions" 5 !calls;
  check Alcotest.int "last run's result" 5 v;
  check Alcotest.int "summary covers the timed runs" 3 s.S.runs;
  Alcotest.(check bool) "timings are non-negative" true (s.S.lo >= 0.0)

let test_measure_clamps_samples () =
  let plan = { S.warmup = 0; samples = 0; settle = false } in
  let _, s = S.measure ~plan (fun () -> ()) in
  check Alcotest.int "at least one sample" 1 s.S.runs

let test_overhead_order () =
  let log = ref [] in
  let plan = { S.warmup = 2; samples = 3; settle = false } in
  ignore
    (S.overhead ~plan
       ~base:(fun () -> log := 'b' :: !log)
       ~layer:(fun () -> log := 'l' :: !log)
       ());
  check Alcotest.string "warmups, then base, layer, base batches"
    ("lblb" ^ "bbb" ^ "lll" ^ "bbb")
    (String.of_seq (List.to_seq (List.rev !log)))

(* deterministic busy work: [k] passes over a fixed array *)
let work k () =
  let a = Array.init 10_000 Fun.id in
  let acc = ref 0 in
  for _ = 1 to k do
    Array.iter (fun x -> acc := !acc + x) a
  done;
  Sys.opaque_identity !acc

let test_overhead_finite () =
  let plan = { S.warmup = 0; samples = 3; settle = false } in
  let o = S.overhead ~plan ~base:(work 1) ~layer:(work 1) () in
  Alcotest.(check bool) "finite percentages" true
    (Float.is_finite o.S.overhead_pct && Float.is_finite o.S.floor_pct);
  check Alcotest.int "each batch has the plan's samples" 3 o.S.base2.S.runs

let test_overhead_orders_work () =
  let plan = { S.warmup = 1; samples = 5; settle = false } in
  let o = S.overhead ~plan ~base:(work 1) ~layer:(work 20) () in
  Alcotest.(check bool) "twenty times the work is not faster" true
    (o.S.layer.S.median >= o.S.base.S.median)

(* ------------------------------------------------------------------ *)

let fp =
  {
    S.git_sha = "abc123def456";
    ocaml_version = "5.1.1";
    word_size = 64;
    flambda = true;
    hostname = "ci-runner-7";
  }

let test_fingerprint_roundtrip () =
  (* the last three hostnames need escaping or are not ASCII *)
  List.iter
    (fun hostname ->
      let fp = { fp with S.hostname } in
      match S.fingerprint_of_json (S.fingerprint_json fp) with
      | None -> Alcotest.fail ("fingerprint did not parse back: " ^ hostname)
      | Some back ->
          Alcotest.(check bool)
            ("round-trips: " ^ hostname)
            true (fp = back))
    [ fp.S.hostname; "café"; "a\"b"; "tab\there" ]

let test_fingerprint_of_json_rejects () =
  check
    Alcotest.(option reject)
    "missing fields" None
    (S.fingerprint_of_json "{\"git_sha\":\"abc\"}");
  check
    Alcotest.(option reject)
    "malformed word size" None
    (S.fingerprint_of_json
       "{\"git_sha\":\"a\",\"ocaml_version\":\"5\",\"word_size\":\"sixty\",\"flambda\":false,\"hostname\":\"h\"}")

let test_current_fingerprint () =
  let fp = S.current_fingerprint () in
  check Alcotest.string "ocaml version" Sys.ocaml_version fp.S.ocaml_version;
  check Alcotest.int "word size" Sys.word_size fp.S.word_size;
  Alcotest.(check bool) "git sha resolved in this checkout" true
    (fp.S.git_sha <> "" && fp.S.git_sha <> "unknown");
  (* and it survives its own JSON round-trip *)
  Alcotest.(check bool) "serializable" true
    (S.fingerprint_of_json (S.fingerprint_json fp) = Some fp)

let test_same_environment () =
  (* the commit is what a comparison is about: another sha compares,
     another machine or compiler does not *)
  Alcotest.(check bool) "another commit, same machine" true
    (S.same_environment fp { fp with S.git_sha = "0123456789ab" });
  Alcotest.(check bool) "another host" false
    (S.same_environment fp { fp with S.hostname = "laptop" });
  Alcotest.(check bool) "another compiler" false
    (S.same_environment fp { fp with S.ocaml_version = "4.14.2" });
  Alcotest.(check bool) "flambda differs" false
    (S.same_environment fp { fp with S.flambda = false })

let test_pp_fingerprint_shape () =
  check Alcotest.string "rendered shape"
    "sha=abc123def456 ocaml=5.1.1 word=64 flambda=true host=ci-runner-7"
    (Format.asprintf "%a" S.pp_fingerprint fp)

let () =
  Alcotest.run "stats"
    [
      ( "summaries",
        [
          Alcotest.test_case "odd sample count" `Quick test_summarize_odd;
          Alcotest.test_case "even sample count" `Quick test_summarize_even;
          Alcotest.test_case "singleton" `Quick test_summarize_singleton;
          Alcotest.test_case "empty raises" `Quick test_summarize_empty_raises;
        ] );
      ( "significance",
        [
          Alcotest.test_case "threshold" `Quick test_threshold;
          Alcotest.test_case "exceeds is one-sided" `Quick
            test_exceeds_one_sided;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "measure runs warmup + samples" `Quick
            test_measure_counts_runs;
          Alcotest.test_case "samples clamped to one" `Quick
            test_measure_clamps_samples;
          Alcotest.test_case "overhead runs warmups then base, layer, base"
            `Quick test_overhead_order;
          Alcotest.test_case "overhead percentages finite" `Quick
            test_overhead_finite;
          Alcotest.test_case "overhead ranks more work above base" `Quick
            test_overhead_orders_work;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "json round-trip" `Quick test_fingerprint_roundtrip;
          Alcotest.test_case "malformed json rejected" `Quick
            test_fingerprint_of_json_rejects;
          Alcotest.test_case "current fingerprint" `Quick
            test_current_fingerprint;
          Alcotest.test_case "pp shape" `Quick test_pp_fingerprint_shape;
          Alcotest.test_case "environment ignores the sha" `Quick
            test_same_environment;
        ] );
    ]
