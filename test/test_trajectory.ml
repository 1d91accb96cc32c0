(* Tests for Workload.Trajectory: the BENCH_trajectory.json snapshot
   format and the >10% regression comparator, with the edge cases CI
   depends on — rows missing from the baseline, rows removed since the
   baseline, zero-valued baselines, and baselines predating the resource
   columns must all be skipped, never flagged and never a crash. *)

module T = Workload.Trajectory

let check = Alcotest.check
let int = Alcotest.int

let entry ?(rounds = 100) ?(messages = 5000) ?(max_bits = 64) ?(phases = 4)
    ?(seconds = 0.5) ?(mad = 0.0) ?(minor_words = 1000.0) ?(peak_mb = 12.0)
    name =
  {
    T.name;
    rounds;
    messages;
    max_bits;
    phases;
    seconds;
    seconds_mad = mad;
    minor_words_per_node = minor_words;
    peak_heap_mb = peak_mb;
  }

let compare_entries olds news =
  T.compare_lines
    ~old_line:(T.snapshot_json ~time:0.0 olds)
    ~new_line:(T.snapshot_json ~time:1.0 news)
    ()

let metric_names regs =
  List.sort_uniq compare (List.map (fun r -> r.T.r_metric) regs)

(* ------------------------------------------------------------------ *)

let test_no_regression_on_identical () =
  let es = [ entry "grid"; entry "expander" ] in
  check int "identical snapshots" 0 (List.length (compare_entries es es))

let test_flags_seeded_allocation_regression () =
  (* the acceptance-criteria case: a >10% minor-allocation regression
     seeded on purpose must be flagged on the new resource column *)
  let old_e = [ entry "grid" ~minor_words:1000.0 ] in
  let new_e = [ entry "grid" ~minor_words:1150.0 ] in
  let regs = compare_entries old_e new_e in
  check int "one regression" 1 (List.length regs);
  let r = List.hd regs in
  check Alcotest.string "metric" "minor_words_per_node" r.T.r_metric;
  check Alcotest.string "workload" "grid" r.T.r_name;
  Alcotest.(check bool) "pct is +15%" true (abs_float (r.T.r_pct -. 15.0) < 0.01);
  Alcotest.(check string)
    "rendered shape" "regression: grid minor_words_per_node: 1000 -> 1150 (+15.0%)"
    (T.regression_line r)

let test_exactly_ten_percent_not_flagged () =
  let regs =
    compare_entries [ entry "g" ~rounds:100 ] [ entry "g" ~rounds:110 ]
  in
  check int "10% is the fence, not inside it" 0 (List.length regs)

let test_missing_baseline_row () =
  (* workload present in the new snapshot but absent from the baseline:
     nothing to diff against, so nothing is flagged *)
  let regs =
    compare_entries [ entry "old_only" ]
      [ entry "brand_new" ~rounds:999999 ~minor_words:1e9 ]
  in
  check int "new row skipped" 0 (List.length regs)

let test_removed_row () =
  (* workload in the baseline but gone from the new snapshot: also not
     a regression (and must not crash the parser) *)
  let regs = compare_entries [ entry "gone"; entry "kept" ] [ entry "kept" ] in
  check int "removed row skipped" 0 (List.length regs)

let test_zero_valued_baseline () =
  (* zero (or negative) baselines make the percentage meaningless:
     skipped even though the new value is positive *)
  let old_e = [ entry "z" ~messages:0 ~seconds:0.0 ~peak_mb:0.0 ] in
  let new_e = [ entry "z" ~messages:100000 ~seconds:9.9 ~peak_mb:512.0 ] in
  check int "zero baselines skipped" 0 (List.length (compare_entries old_e new_e))

let test_baseline_predating_resource_columns () =
  (* a trajectory line written before the resource columns existed:
     logical metrics still gate, resource metrics are skipped *)
  let old_line =
    "{\"time\":0,\"workloads\":[{\"name\":\"grid\",\"rounds\":100,\
     \"messages\":5000,\"max_bits\":64,\"phases\":4}]}"
  in
  let new_line =
    T.snapshot_json ~time:1.0
      [ entry "grid" ~rounds:150 ~seconds:99.0 ~minor_words:1e9 ~peak_mb:4096.0 ]
  in
  let regs = T.compare_lines ~old_line ~new_line () in
  check
    Alcotest.(list string)
    "only the logical metric fires" [ "rounds" ] (metric_names regs)

let test_resource_columns_gate () =
  (* all three resource columns are part of the default gate *)
  let old_e = [ entry "g" ] in
  let new_e =
    [ entry "g" ~seconds:0.7 ~minor_words:2000.0 ~peak_mb:20.0 ]
  in
  check
    Alcotest.(list string)
    "resource regressions flagged"
    [ "minor_words_per_node"; "peak_heap_mb"; "seconds" ]
    (metric_names (compare_entries old_e new_e))

let test_metrics_filter () =
  let old_e = [ entry "g" ~rounds:100 ~minor_words:1000.0 ] in
  let new_e = [ entry "g" ~rounds:200 ~minor_words:2000.0 ] in
  let regs =
    T.compare_lines ~metrics:[ "rounds" ]
      ~old_line:(T.snapshot_json ~time:0.0 old_e)
      ~new_line:(T.snapshot_json ~time:1.0 new_e)
      ()
  in
  check Alcotest.(list string) "only requested metric" [ "rounds" ]
    (metric_names regs)

let test_mad_widens_seconds_gate () =
  (* +24% on seconds clears the 10% gate, but the recorded MAD says the
     measurement is that noisy: 3*0.05 = 0.15 > 0.12 delta, so the
     MAD-aware comparator stays quiet where the naive one would flag *)
  let old_e = [ entry "g" ~seconds:0.5 ~mad:0.05 ] in
  let new_e = [ entry "g" ~seconds:0.62 ~mad:0.05 ] in
  check int "within noise" 0 (List.length (compare_entries old_e new_e));
  let regs =
    compare_entries [ entry "g" ~seconds:0.5 ] [ entry "g" ~seconds:0.62 ]
  in
  check Alcotest.(list string) "same delta without MAD flags" [ "seconds" ]
    (metric_names regs)

let test_seconds_absolute_floor () =
  (* the bench record x3 acceptance case: +16.7% on a 0.6ms headline is
     quantization noise, not a regression — seconds must also clear the
     5ms absolute floor *)
  let old_e = [ entry "g" ~seconds:0.0006 ] in
  let new_e = [ entry "g" ~seconds:0.0007 ] in
  check int "sub-floor jitter ignored" 0
    (List.length (compare_entries old_e new_e))

let test_mad_taken_from_either_side () =
  (* only the new side recorded a MAD (baseline predates the stats
     runner): the larger of the two sides still widens the gate *)
  let old_e = [ entry "g" ~seconds:0.5 ] in
  let new_e = [ entry "g" ~seconds:0.62 ~mad:0.05 ] in
  check int "new-side MAD widens" 0 (List.length (compare_entries old_e new_e))

let fp ?(sha = "abc123") () =
  {
    Workload.Stats.git_sha = sha;
    ocaml_version = "5.1.1";
    word_size = 64;
    flambda = false;
    hostname = "ci";
  }

let test_fingerprint_refusal () =
  (* same tree, wildly different numbers, but the fingerprints differ:
     the verdict is Incomparable, never a phantom regression list *)
  let old_line = T.snapshot_json ~fingerprint:(fp ()) ~time:0.0 [ entry "g" ] in
  let new_line =
    T.snapshot_json ~fingerprint:(fp ~sha:"def456" ()) ~time:1.0
      [ entry "g" ~rounds:900 ~seconds:9.0 ]
  in
  (match T.compare_snapshots ~old_line ~new_line () with
  | T.Incomparable { old_fp; new_fp } ->
      Alcotest.(check bool)
        "old fp carries its sha" true
        (Workload.Stats.fingerprint_of_json old_fp
        = Some (fp ()))
      ;
      Alcotest.(check bool)
        "new fp carries its sha" true
        (Workload.Stats.fingerprint_of_json new_fp
        = Some (fp ~sha:"def456" ()))
  | T.Regressions _ -> Alcotest.fail "cross-fingerprint compare not refused");
  (* identical fingerprints compare as usual *)
  match
    T.compare_snapshots ~old_line
      ~new_line:
        (T.snapshot_json ~fingerprint:(fp ()) ~time:1.0
           [ entry "g" ~rounds:900 ])
      ()
  with
  | T.Regressions regs ->
      check Alcotest.(list string) "same fp gates" [ "rounds" ]
        (metric_names regs)
  | T.Incomparable _ -> Alcotest.fail "same-fingerprint compare refused"

let test_missing_fingerprint_still_compares () =
  (* pre-observatory baselines carry no fingerprint: history must stay
     comparable rather than be orphaned wholesale *)
  let old_line = T.snapshot_json ~time:0.0 [ entry "g" ] in
  let new_line =
    T.snapshot_json ~fingerprint:(fp ()) ~time:1.0 [ entry "g" ~rounds:900 ]
  in
  match T.compare_snapshots ~old_line ~new_line () with
  | T.Regressions regs ->
      check Alcotest.(list string) "still gates" [ "rounds" ]
        (metric_names regs)
  | T.Incomparable _ -> Alcotest.fail "fingerprint-less baseline refused"

let test_fingerprint_json_roundtrip () =
  (* the hostnames need escaping (or are not ASCII), so a scanner that
     stops at the first '"' or reads OCaml escapes misreads them *)
  List.iter
    (fun hostname ->
      let fp = { (fp ()) with Workload.Stats.hostname } in
      let line = T.snapshot_json ~fingerprint:fp ~time:7.0 [ entry "a" ] in
      let side = Workload.Diff.side_of_trajectory_line ~label:"t" line in
      Alcotest.(check bool)
        ("roundtrips through json: " ^ hostname)
        true
        (side.Workload.Diff.fingerprint = Some fp))
    [ "ci"; "café"; "a\"b"; "tab\there" ];
  let bare = T.snapshot_json ~time:7.0 [ entry "a" ] in
  Alcotest.(check bool)
    "absent stays absent" true
    ((Workload.Diff.side_of_trajectory_line ~label:"t" bare).Workload.Diff
       .fingerprint = None)

let test_malformed_line_warned_and_skipped () =
  (* a hand-edited (or truncated) trajectory file: the good snapshots
     survive, the bad line is reported with its 1-based line number *)
  let path = Filename.temp_file "trajectory" ".json" in
  let good1 = T.snapshot_json ~time:1.0 [ entry "a" ] in
  let good2 = T.snapshot_json ~time:2.0 [ entry "a" ~rounds:120 ] in
  let oc = open_out path in
  output_string oc
    (String.concat "\n"
       [ "["; good1 ^ ","; "{\"time\":3,\"workloads\":[{\"trunca"; good2; "]" ]);
  close_out oc;
  let warned = ref [] in
  let back =
    T.read_snapshot_lines
      ~warn:(fun ~line_number line -> warned := (line_number, line) :: !warned)
      path
  in
  Sys.remove path;
  Alcotest.(check (list string)) "good snapshots survive" [ good1; good2 ] back;
  match !warned with
  | [ (line_number, line) ] ->
      check int "1-based line number" 3 line_number;
      Alcotest.(check bool)
        "offending content reported" true
        (String.length line > 0 && line.[0] = '{')
  | ws -> Alcotest.fail (Printf.sprintf "expected 1 warning, got %d" (List.length ws))

let test_write_read_roundtrip () =
  let path = Filename.temp_file "trajectory" ".json" in
  let lines =
    [
      T.snapshot_json ~time:1.0 [ entry "a" ];
      T.snapshot_json ~time:2.0 [ entry "a" ~rounds:120 ];
    ]
  in
  T.write path lines;
  let back = T.read_snapshot_lines path in
  Sys.remove path;
  check int "both snapshots back" 2 (List.length back);
  Alcotest.(check (list string)) "lines survive verbatim" lines back;
  check int "missing file reads empty" 0
    (List.length (T.read_snapshot_lines path))

let () =
  Alcotest.run "trajectory"
    [
      ( "comparator",
        [
          Alcotest.test_case "identical snapshots clean" `Quick
            test_no_regression_on_identical;
          Alcotest.test_case "seeded allocation regression flagged" `Quick
            test_flags_seeded_allocation_regression;
          Alcotest.test_case "exactly 10% not flagged" `Quick
            test_exactly_ten_percent_not_flagged;
          Alcotest.test_case "missing baseline row skipped" `Quick
            test_missing_baseline_row;
          Alcotest.test_case "removed row skipped" `Quick test_removed_row;
          Alcotest.test_case "zero-valued baseline skipped" `Quick
            test_zero_valued_baseline;
          Alcotest.test_case "pre-resource baseline tolerated" `Quick
            test_baseline_predating_resource_columns;
          Alcotest.test_case "resource columns gate" `Quick
            test_resource_columns_gate;
          Alcotest.test_case "metrics filter respected" `Quick
            test_metrics_filter;
          Alcotest.test_case "MAD widens the seconds gate" `Quick
            test_mad_widens_seconds_gate;
          Alcotest.test_case "seconds absolute floor" `Quick
            test_seconds_absolute_floor;
          Alcotest.test_case "MAD taken from either side" `Quick
            test_mad_taken_from_either_side;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "cross-fingerprint compare refused" `Quick
            test_fingerprint_refusal;
          Alcotest.test_case "fingerprint-less baseline compares" `Quick
            test_missing_fingerprint_still_compares;
          Alcotest.test_case "fingerprint json round-trip" `Quick
            test_fingerprint_json_roundtrip;
        ] );
      ( "file",
        [
          Alcotest.test_case "malformed line warned and skipped" `Quick
            test_malformed_line_warned_and_skipped;
          Alcotest.test_case "write/read round-trip" `Quick
            test_write_read_roundtrip;
        ] );
    ]
