(* Tests for Workload.Diff: phase-tree alignment (matched / added /
   removed / renamed), the per-metric significance gates (pure relative
   for logical columns, MAD-widened with an absolute floor for
   seconds), fingerprint refusal, side loading, the rendered outputs,
   and the trajectory regression lines it gives bench record, scale,
   analyze and the dashboard — with the edge cases CI depends on: rows
   missing from the baseline, rows removed since the baseline,
   zero-valued baselines, and baselines predating the resource columns
   must all be skipped, never flagged and never a crash. *)

module D = Workload.Diff
module T = Workload.Trajectory
module S = Workload.Stats

let check = Alcotest.check

let phase ?(depth = 1) ?(rounds = 100.0) ?(messages = 1000.0)
    ?(bits = 5000.0) ?(seconds = 1.0) ?(mw = 10000.0) path =
  {
    D.path;
    depth;
    seconds_mad = 0.0;
    columns =
      [
        ("rounds", rounds);
        ("messages", messages);
        ("bits", bits);
        ("seconds", seconds);
        ("minor_words", mw);
      ];
  }

let with_seconds v p =
  {
    p with
    D.columns =
      List.map (fun (c, x) -> (c, if c = "seconds" then v else x)) p.D.columns;
  }

(* a report-like side: one recorded MAD for every phase *)
let side ?fp ?(mad = 0.0) ?(label = "side") phases =
  {
    D.label;
    fingerprint = fp;
    phases = List.map (fun p -> { p with D.seconds_mad = mad }) phases;
  }

let column p c =
  match List.assoc_opt c p.D.columns with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "%s has no %s column" p.D.path c)

let ok = function Ok d -> d | Error e -> Alcotest.fail e

let row d path =
  match List.find_opt (fun r -> r.D.r_path = path) d.D.rows with
  | Some r -> r
  | None -> Alcotest.fail (Printf.sprintf "no row for phase %s" path)

let metric r name =
  match List.find_opt (fun m -> m.D.m_name = name) r.D.r_metrics with
  | Some m -> m
  | None -> Alcotest.fail (Printf.sprintf "no %s metric on %s" name r.D.r_path)

let base = [ phase "carve"; phase "carve/grow"; phase "carve/finish" ]

(* ------------------------------------------------------------------ *)

let test_identical_sides_clean () =
  let d = ok (D.compare (side base) (side base)) in
  check Alcotest.int "nothing significant" 0 d.D.significant;
  check Alcotest.int "all phases aligned" 3 (List.length d.D.rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.D.r_path ^ " matched") true
        (r.D.r_status = D.Matched))
    d.D.rows

let test_seeded_regression_is_top_row () =
  (* the acceptance-criteria case: a +20% slowdown seeded into exactly
     one phase must surface as the top diff row, with the right path *)
  let slowed =
    List.map
      (fun p ->
        if p.D.path = "carve/grow" then with_seconds 1.2 p else p)
      base
  in
  let d = ok (D.compare (side base) (side slowed)) in
  check Alcotest.int "exactly one significant row" 1 d.D.significant;
  (match d.D.rows with
  | top :: _ -> check Alcotest.string "ranked first" "carve/grow" top.D.r_path
  | [] -> Alcotest.fail "no rows");
  let m = metric (row d "carve/grow") "seconds" in
  Alcotest.(check bool) "seconds flagged" true m.D.m_sig;
  Alcotest.(check bool) "rounds untouched" false
    (metric (row d "carve/grow") "rounds").D.m_sig

let test_mad_suppresses_seconds () =
  (* same +20% delta, but the runs recorded a MAD of 0.1s: the gate
     widens to 3*0.1 = 0.3 > 0.2, so the delta reads as noise *)
  let slowed =
    List.map
      (fun p ->
        if p.D.path = "carve/grow" then with_seconds 1.2 p else p)
      base
  in
  let d = ok (D.compare (side ~mad:0.1 base) (side slowed)) in
  check Alcotest.int "within the recorded noise" 0 d.D.significant

let test_min_seconds_floor () =
  (* a 0.001s phase doubling is +100% but below the 5ms floor: phase
     jitter at that scale never flags *)
  let a = [ phase "tiny" ~seconds:0.001 ] in
  let b = [ phase "tiny" ~seconds:0.002 ] in
  let d = ok (D.compare (side a) (side b)) in
  check Alcotest.int "sub-floor delta ignored" 0 d.D.significant;
  (* the same relative delta on the logical columns does flag *)
  let d2 =
    ok (D.compare (side [ phase "p" ~rounds:1.0 ]) (side [ phase "p" ~rounds:2.0 ]))
  in
  check Alcotest.int "logical columns keep the pure gate" 1 d2.D.significant

let test_added_and_removed () =
  (* different parents, so the rename heuristic cannot pair them *)
  let a = base @ [ phase "old_parent/gone" ] in
  let b = base @ [ phase "new_parent/fresh" ] in
  let d = ok (D.compare (side a) (side b)) in
  Alcotest.(check bool) "added" true
    ((row d "new_parent/fresh").D.r_status = D.Added);
  Alcotest.(check bool) "removed" true
    ((row d "old_parent/gone").D.r_status = D.Removed);
  (* an added phase's metrics grow from a zero baseline: significant *)
  Alcotest.(check bool) "added phase flags" true
    (metric (row d "new_parent/fresh") "rounds").D.m_sig

let test_renamed_pairing () =
  let a = base @ [ phase "carve/split" ~rounds:100.0 ] in
  let b = base @ [ phase "carve/partition" ~rounds:150.0 ] in
  let d = ok (D.compare (side a) (side b)) in
  (match (row d "carve/partition").D.r_status with
  | D.Renamed old -> check Alcotest.string "paired with" "carve/split" old
  | _ -> Alcotest.fail "rename not detected");
  (* the old path must not also appear as a removed row *)
  Alcotest.(check bool) "no leftover removed row" true
    (List.for_all (fun r -> r.D.r_path <> "carve/split") d.D.rows)

let test_rename_rejected_when_rounds_diverge () =
  (* same parent and depth, but 10x the rounds: that is a different
     phase, not a rename *)
  let a = base @ [ phase "carve/split" ~rounds:100.0 ] in
  let b = base @ [ phase "carve/partition" ~rounds:1500.0 ] in
  let d = ok (D.compare (side a) (side b)) in
  Alcotest.(check bool) "added" true
    ((row d "carve/partition").D.r_status = D.Added);
  Alcotest.(check bool) "removed" true
    ((row d "carve/split").D.r_status = D.Removed)

let test_zero_baseline_phase () =
  (* an all-zero baseline phase (e.g. a skipped stage) growing real
     work: flagged, and the percentage-free delta cells must not crash
     the renderers *)
  let a = [ phase "stage" ~rounds:0.0 ~messages:0.0 ~bits:0.0 ~seconds:0.0 ~mw:0.0 ] in
  let b = [ phase "stage" ~rounds:50.0 ~messages:10.0 ~bits:0.0 ~seconds:0.0 ~mw:0.0 ] in
  let d = ok (D.compare (side a) (side b)) in
  check Alcotest.int "flagged" 1 d.D.significant;
  Alcotest.(check bool) "markdown renders" true
    (String.length (D.to_markdown d) > 0);
  Alcotest.(check bool) "json renders" true (String.length (D.to_json d) > 0)

let fp ?(sha = "abc123") ?(host = "ci") () =
  {
    S.git_sha = sha;
    ocaml_version = "5.1.1";
    word_size = 64;
    flambda = false;
    hostname = host;
  }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_fingerprint_refusal_and_force () =
  let a = side ~fp:(fp ()) base in
  let b = side ~fp:(fp ~host:"laptop" ()) base in
  (match D.compare a b with
  | Error msg ->
      Alcotest.(check bool) "message names both environments" true
        (contains msg "host=ci" && contains msg "host=laptop")
  | Ok _ -> Alcotest.fail "cross-environment compare not refused");
  let d = ok (D.compare ~options:{ D.default_options with force = true } a b) in
  Alcotest.(check bool) "forced flag set" true d.D.forced;
  check Alcotest.int "still compares" 0 d.D.significant;
  (* same environment, another commit: no refusal, not forced *)
  let d2 = ok (D.compare a (side ~fp:(fp ~sha:"def456" ()) base)) in
  Alcotest.(check bool) "another commit not forced" false d2.D.forced

let test_markdown_clean_verdict () =
  let d = ok (D.compare (side base) (side base)) in
  let md = D.to_markdown d in
  let has sub =
    let n = String.length md and m = String.length sub in
    let rec go i = i + m <= n && (String.sub md i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "verdict line" true
    (has "No significant phase deltas (3 phases aligned)")

let test_folded_output () =
  let a = [ phase "carve/grow" ~seconds:0.5 ] in
  let b = [ phase "carve/grow" ~seconds:1.0 ] in
  let d = ok (D.compare (side a) (side b)) in
  check Alcotest.string "difffolded line" "carve;grow 500000 1000000\n"
    (D.to_folded d)

(* ------------------------------------------------------------------ *)

(* a row with schema 1's columns *)
let entry ?(rounds = 100) ?(messages = 5000) ?(max_bits = 64) ?(phases = 4)
    ?(seconds = 0.5) ?(mad = 0.0) ?(minor_words = 1000.0) ?(peak_mb = 12.0)
    name =
  {
    T.name;
    columns =
      [
        ("rounds", Json.int rounds);
        ("messages", Json.int messages);
        ("max_bits", Json.int max_bits);
        ("phases", Json.int phases);
        ("seconds", Json.float "%.4f" seconds);
        ("seconds_mad", Json.float "%.6f" mad);
        ("minor_words_per_node", Json.float "%.1f" minor_words);
        ("peak_heap_mb", Json.float "%.1f" peak_mb);
      ];
  }

let test_side_of_trajectory_line () =
  let line =
    T.snapshot_json ~fingerprint:(fp ()) ~time:1.0
      [ entry "grid" ~mad:0.01; entry "expander" ~mad:0.02 ]
  in
  let s = D.side_of_trajectory_line ~label:"traj" line in
  check Alcotest.int "one phase per workload" 2 (List.length s.D.phases);
  let g = List.hd s.D.phases in
  check Alcotest.string "name becomes path" "grid" g.D.path;
  check Alcotest.int "depth zero" 0 g.D.depth;
  Alcotest.(check (float 1e-9)) "rounds" 100.0 (column g "rounds");
  Alcotest.(check (float 1e-9)) "max_bits under its own name" 64.0
    (column g "max_bits");
  Alcotest.(check (list string))
    "MADs widen the gate, they are not compared"
    [
      "rounds"; "messages"; "max_bits"; "phases"; "seconds";
      "minor_words_per_node"; "peak_heap_mb";
    ]
    (List.map fst g.D.columns);
  Alcotest.(check (list (float 1e-9)))
    "each row keeps its own MAD" [ 0.01; 0.02 ]
    (List.map (fun p -> p.D.seconds_mad) s.D.phases);
  Alcotest.(check bool) "fingerprint parsed" true (s.D.fingerprint = Some (fp ()))

(* a report document loaded the way `decompose diff` loads it: from a
   file, labelled by its base name *)
let load_report text =
  let path = Filename.temp_file "diff_report" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let r = D.load path in
  Sys.remove path;
  r

let test_side_of_report_json () =
  let text =
    "{\"report\":{\"schema\":2,\"algo\":\"thm2.3\",\"seconds_mad\":0.003},\
     \"fingerprint\":{\"git_sha\":\"abc123\",\"ocaml_version\":\"5.1.1\",\
     \"word_size\":64,\"flambda\":false,\"hostname\":\"ci\"},\
     \"spans\":[{\"path\":\"(unspanned)\",\"depth\":0,\"rounds\":0,\
     \"messages\":0,\"bits\":0,\"seconds\":0.1,\"minor_words\":77},\
     {\"path\":\"carve\",\"depth\":1,\"rounds\":10,\"messages\":5,\
     \"bits\":100,\"seconds\":0.5,\"minor_words\":4200}]}"
  in
  let s = ok (load_report text) in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) "report-level MAD" 0.003 p.D.seconds_mad)
    s.D.phases;
  Alcotest.(check bool) "fingerprint parsed" true (s.D.fingerprint = Some (fp ()));
  check Alcotest.int "one phase per spans row" 2 (List.length s.D.phases);
  let carve = List.find (fun p -> p.D.path = "carve") s.D.phases in
  Alcotest.(check (float 1e-9)) "minor words from the row" 4200.0
    (column carve "minor_words");
  check Alcotest.int "root depth" 1 carve.D.depth;
  let unsp = List.find (fun p -> p.D.path = "(unspanned)") s.D.phases in
  Alcotest.(check (float 1e-9)) "unspanned phase kept" 77.0
    (column unsp "minor_words");
  (* not JSON at all: refused, not read as an empty side *)
  match load_report "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-JSON file accepted"

(* a report file the diff must refuse, with the file and the key named *)
let refused ~key text =
  let path = Filename.temp_file "diff_bad" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let r = D.load path in
  Sys.remove path;
  match r with
  | Ok _ -> Alcotest.fail ("misread as a side: " ^ text)
  | Error e ->
      Alcotest.(check bool) ("names the file: " ^ e) true
        (contains e (Filename.basename path));
      Alcotest.(check bool) ("names " ^ key ^ ": " ^ e) true (contains e key)

let test_refuses_parent_layout () =
  refused ~key:"schema"
    "{\"report\":{\"algo\":\"x\"},\"rollups\":[{\"path\":\"a\",\
     \"depth\":0,\"rounds\":500,\"messages\":1,\"bits\":1,\"seconds\":0.1}],\
     \"resources\":{\"rollups\":[{\"path\":\"a\",\"minor_words\":9}]}}"

let test_refuses_missing_array () =
  refused ~key:"spans"
    "{\"report\":{\"schema\":2,\"algo\":\"x\"},\"rollupz\":[{\"path\":\"a\"}]}"

let test_refuses_missing_column () =
  refused ~key:"rounds"
    "{\"report\":{\"schema\":2,\"algo\":\"x\"},\"spans\":[{\"path\":\"a\",\
     \"depth\":1,\"messages\":1,\"bits\":1,\"seconds\":0.1,\
     \"minor_words\":5}]}"

(* roots are depth 1 and the unspanned bucket depth 0, the same in the
   report's CSV, its JSON and the diff side read back from it *)
let test_one_depth_convention () =
  let r =
    Workload.Report.of_decomposer
      (Workload.Algorithms.find_decomposer "thm2.3")
      Workload.Suite.grid ~n:16
  in
  let csv = Congest.Span.csv r.Workload.Report.spans in
  Alcotest.(check bool) "CSV root depth 1" true (contains csv "\nnetdecomp,1,");
  Alcotest.(check bool) "CSV unspanned depth 0" true
    (contains csv "\n(unspanned),0,");
  let json = Workload.Report.to_json r in
  Alcotest.(check bool) "JSON root depth 1" true
    (contains json "{\"path\":\"netdecomp\",\"depth\":1,");
  let s = ok (load_report json) in
  let depth path =
    (List.find (fun p -> p.D.path = path) s.D.phases).D.depth
  in
  check Alcotest.int "diff side root depth 1" 1 (depth "netdecomp");
  check Alcotest.int "diff side unspanned depth 0" 0 (depth "(unspanned)")

let test_load_specs () =
  let path = Filename.temp_file "diff_traj" ".json" in
  T.write path
    [
      T.snapshot_json ~time:1.0 [ entry "grid" ~rounds:100 ];
      T.snapshot_json ~time:2.0 [ entry "grid" ~rounds:200 ];
    ];
  let rounds_of s =
    match s.D.phases with
    | p :: _ -> column p "rounds"
    | [] -> Alcotest.fail "no phases"
  in
  Alcotest.(check (float 1e-9)) "default is newest" 200.0
    (rounds_of (ok (D.load path)));
  Alcotest.(check (float 1e-9)) "#1 is oldest" 100.0
    (rounds_of (ok (D.load (path ^ "#1"))));
  Alcotest.(check (float 1e-9)) "#-2 counts from the end" 100.0
    (rounds_of (ok (D.load (path ^ "#-2"))));
  (match D.load (path ^ "#9") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range index accepted");
  Sys.remove path;
  (match D.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted");
  (* a report file is recognized by its "report" member *)
  let rpath = Filename.temp_file "diff_rep" ".json" in
  let oc = open_out rpath in
  output_string oc
    "{\"report\":{\"schema\":2,\"algo\":\"x\"},\"spans\":[{\"path\":\"a\",\
     \"depth\":1,\"rounds\":1,\"messages\":1,\"bits\":1,\"seconds\":0.1,\
     \"minor_words\":3}]}";
  close_out oc;
  check Alcotest.int "report side loads" 1
    (List.length (ok (D.load rpath)).D.phases);
  (match D.load (rpath ^ "#1") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "#N on a report accepted");
  (* a report is recognized by its "report" member however it is laid
     out, and its fingerprint survives hostnames that need escaping *)
  List.iter
    (fun hostname ->
      let fp = { (fp ()) with S.hostname } in
      let fp_json = S.fingerprint_json fp in
      List.iter
        (fun (layout, text) ->
          let oc = open_out rpath in
          output_string oc text;
          close_out oc;
          let s = ok (D.load rpath) in
          Alcotest.(check bool)
            (Printf.sprintf "%s report fingerprint: %s" layout hostname)
            true
            (s.D.fingerprint = Some fp))
        [
          ( "compact",
            "{\"report\":{\"schema\":2,\"algo\":\"x\"},\"fingerprint\":"
            ^ fp_json ^ ",\"spans\":[]}" );
          ( "pretty",
            "{\n  \"report\": {\n    \"schema\": 2,\n    \"algo\": \"x\"\n  },\n\
            \  \"fingerprint\": " ^ fp_json ^ ",\n  \"spans\": []\n}\n" );
        ])
    [ "ci"; "café"; "a\"b"; "tab\there" ];
  Sys.remove rpath

(* ------------------------------------------------------------------ *)
(* Trajectory regression lines                                          *)
(* ------------------------------------------------------------------ *)

let regressions_between olds news =
  D.regressions
    (D.against_history
       [ T.snapshot_json ~fingerprint:(fp ()) ~time:0.0 olds ]
       (T.snapshot_json ~fingerprint:(fp ()) ~time:1.0 news))

let metric_names regs =
  List.sort_uniq compare (List.map (fun (_, m) -> m.D.m_name) regs)

let test_no_regression_on_identical () =
  let es = [ entry "grid"; entry "expander" ] in
  check Alcotest.int "identical snapshots" 0
    (List.length (regressions_between es es))

let test_flags_seeded_allocation_regression () =
  (* a >10% minor-allocation regression seeded on purpose must be
     flagged on the resource column *)
  let regs =
    regressions_between
      [ entry "grid" ~minor_words:1000.0 ]
      [ entry "grid" ~minor_words:1150.0 ]
  in
  match regs with
  | [ ((name, m) as r) ] ->
      check Alcotest.string "metric" "minor_words_per_node" m.D.m_name;
      check Alcotest.string "workload" "grid" name;
      Alcotest.(check string)
        "rendered shape"
        "regression: grid minor_words_per_node: 1000 -> 1150 (+15.0%)"
        (D.regression_line r)
  | _ -> Alcotest.failf "expected one regression, got %d" (List.length regs)

let test_exactly_ten_percent_not_flagged () =
  let regs =
    regressions_between [ entry "g" ~rounds:100 ] [ entry "g" ~rounds:110 ]
  in
  check Alcotest.int "10% is the fence, not inside it" 0 (List.length regs)

let test_missing_baseline_row () =
  (* workload present in the new snapshot but absent from the baseline:
     nothing to diff against, so nothing is flagged *)
  let regs =
    regressions_between [ entry "old_only" ]
      [ entry "brand_new" ~rounds:999999 ~minor_words:1e9 ]
  in
  check Alcotest.int "new row skipped" 0 (List.length regs)

let test_removed_row () =
  (* workload in the baseline but gone from the new snapshot: also not
     a regression (and must not crash the parser) *)
  let regs =
    regressions_between [ entry "gone"; entry "kept" ] [ entry "kept" ]
  in
  check Alcotest.int "removed row skipped" 0 (List.length regs)

let test_zero_valued_baseline () =
  (* zero (or negative) baselines make the percentage meaningless:
     skipped even though the new value is positive *)
  let old_e = [ entry "z" ~messages:0 ~seconds:0.0 ~peak_mb:0.0 ] in
  let new_e = [ entry "z" ~messages:100000 ~seconds:9.9 ~peak_mb:512.0 ] in
  check Alcotest.int "zero baselines skipped" 0
    (List.length (regressions_between old_e new_e))

let test_baseline_predating_resource_columns () =
  (* a trajectory line written before the resource columns existed:
     logical metrics still gate, resource metrics are skipped *)
  let old_line =
    "{\"time\":0,\"fingerprint\":" ^ S.fingerprint_json (fp ())
    ^ ",\"workloads\":[{\"name\":\"grid\",\"rounds\":100,\
       \"messages\":5000,\"max_bits\":64,\"phases\":4}]}"
  in
  let new_line =
    T.snapshot_json ~fingerprint:(fp ()) ~time:1.0
      [
        entry "grid" ~rounds:150 ~seconds:99.0 ~minor_words:1e9
          ~peak_mb:4096.0;
      ]
  in
  check
    Alcotest.(list string)
    "only the logical metric fires" [ "rounds" ]
    (metric_names (D.regressions (D.against_history [ old_line ] new_line)))

let test_resource_columns_gate () =
  (* all three resource columns are gated *)
  check
    Alcotest.(list string)
    "resource regressions flagged"
    [ "minor_words_per_node"; "peak_heap_mb"; "seconds" ]
    (metric_names
       (regressions_between [ entry "g" ]
          [ entry "g" ~seconds:0.7 ~minor_words:2000.0 ~peak_mb:20.0 ]))

let test_mad_widens_seconds_gate () =
  (* +24% on seconds clears the 10% gate, but the recorded MAD says the
     measurement is that noisy: 3*0.05 = 0.15 > 0.12 delta, so the
     MAD-aware comparator stays quiet where the naive one would flag *)
  check Alcotest.int "within noise" 0
    (List.length
       (regressions_between
          [ entry "g" ~seconds:0.5 ~mad:0.05 ]
          [ entry "g" ~seconds:0.62 ~mad:0.05 ]));
  check
    Alcotest.(list string)
    "same delta without MAD flags" [ "seconds" ]
    (metric_names
       (regressions_between [ entry "g" ~seconds:0.5 ]
          [ entry "g" ~seconds:0.62 ]))

let test_mad_is_per_row () =
  (* a noisy row's MAD widens its own gate, not its neighbours' *)
  check
    Alcotest.(list string)
    "only the quiet row flags" [ "quiet" ]
    (List.map fst
       (regressions_between
          [ entry "noisy" ~seconds:0.5 ~mad:0.05; entry "quiet" ~seconds:0.5 ]
          [
            entry "noisy" ~seconds:0.62 ~mad:0.05; entry "quiet" ~seconds:0.62;
          ]))

let test_seconds_absolute_floor () =
  (* +16.7% on a 0.6ms headline is quantization noise, not a
     regression — seconds must also clear the 5ms absolute floor *)
  check Alcotest.int "sub-floor jitter ignored" 0
    (List.length
       (regressions_between [ entry "g" ~seconds:0.0006 ]
          [ entry "g" ~seconds:0.0007 ]))

let test_mad_taken_from_either_side () =
  (* only the new side recorded a MAD (baseline predates the stats
     runner): the larger of the two sides still widens the gate *)
  check Alcotest.int "new-side MAD widens" 0
    (List.length
       (regressions_between [ entry "g" ~seconds:0.5 ]
          [ entry "g" ~seconds:0.62 ~mad:0.05 ]))

let test_latest_row_of_that_name () =
  (* a row is compared with the newest earlier snapshot that has it, in
     the same environment: another kind of snapshot in between, or a
     newer one from another machine, is passed over *)
  let line ?fp time es = T.snapshot_json ?fingerprint:fp ~time es in
  let history =
    [
      line ~fp:(fp ()) 0.0 [ entry "scale" ~rounds:100 ];
      line ~fp:(fp ~host:"laptop" ()) 1.0 [ entry "scale" ~rounds:300 ];
      line ~fp:(fp ()) 2.0 [ entry "analyze" ];
    ]
  in
  let regs =
    D.regressions
      (D.against_history history
         (line ~fp:(fp ~sha:"def456" ()) 3.0 [ entry "scale" ~rounds:200 ]))
  in
  Alcotest.(check (list string))
    "vs the same-machine row two snapshots back"
    [ "regression: scale rounds: 100 -> 200 (+100.0%)" ]
    (List.map D.regression_line regs)

let test_cross_fingerprint_refused () =
  (* same rows, wildly different numbers, but another machine: the
     sides are refused, and no trajectory row is compared across them *)
  let old_line = T.snapshot_json ~fingerprint:(fp ()) ~time:0.0 [ entry "g" ] in
  let new_line =
    T.snapshot_json ~fingerprint:(fp ~host:"laptop" ()) ~time:1.0
      [ entry "g" ~rounds:900 ~seconds:9.0 ]
  in
  (match
     D.compare
       (D.side_of_trajectory_line ~label:"old" old_line)
       (D.side_of_trajectory_line ~label:"new" new_line)
   with
  | Error msg ->
      Alcotest.(check bool) "names both hosts" true
        (contains msg "host=ci" && contains msg "host=laptop")
  | Ok _ -> Alcotest.fail "cross-environment compare not refused");
  let d = D.against_history [ old_line ] new_line in
  Alcotest.(check bool) "no row compared" true
    (List.for_all (fun r -> r.D.r_status = D.Added) d.D.rows);
  check Alcotest.int "nothing flagged" 0 (List.length (D.regressions d));
  (* another commit on the same machine compares as usual *)
  check
    Alcotest.(list string)
    "another commit gates" [ "rounds" ]
    (metric_names
       (D.regressions
          (D.against_history [ old_line ]
             (T.snapshot_json ~fingerprint:(fp ~sha:"def456" ()) ~time:1.0
                [ entry "g" ~rounds:900 ]))))

let test_fingerprint_less_history_ignored () =
  (* pre-observatory snapshots carry no fingerprint, so nothing says
     which machine ran them: a faster row there is no baseline, and the
     row aligns as added with nothing flagged *)
  let old_line = T.snapshot_json ~time:0.0 [ entry "g" ~seconds:0.1 ] in
  let new_line =
    T.snapshot_json ~fingerprint:(fp ()) ~time:1.0 [ entry "g" ~seconds:0.5 ]
  in
  let d = D.against_history [ old_line ] new_line in
  Alcotest.(check bool) "no baseline" true
    (List.for_all (fun r -> r.D.r_status = D.Added) d.D.rows);
  Alcotest.(check (list string))
    "no regression line" []
    (List.map D.regression_line (D.regressions d));
  (* [compare] of two fingerprint-less sides still aligns them *)
  match
    D.compare
      (D.side_of_trajectory_line ~label:"old" old_line)
      (D.side_of_trajectory_line ~label:"new"
         (T.snapshot_json ~time:1.0 [ entry "g" ~seconds:0.5 ]))
  with
  | Ok t ->
      Alcotest.(check bool) "compare matches the row" true
        (List.for_all (fun r -> r.D.r_status = D.Matched) t.D.rows)
  | Error msg -> Alcotest.fail msg

let test_fingerprint_json_roundtrip () =
  (* the hostnames need escaping (or are not ASCII), so a scanner that
     stops at the first '"' or reads OCaml escapes misreads them *)
  List.iter
    (fun hostname ->
      let fp = { (fp ()) with S.hostname } in
      let line = T.snapshot_json ~fingerprint:fp ~time:7.0 [ entry "a" ] in
      let side = D.side_of_trajectory_line ~label:"t" line in
      Alcotest.(check bool)
        ("roundtrips through json: " ^ hostname)
        true
        (side.D.fingerprint = Some fp))
    [ "ci"; "café"; "a\"b"; "tab\there" ];
  let bare = T.snapshot_json ~time:7.0 [ entry "a" ] in
  Alcotest.(check bool)
    "absent stays absent" true
    ((D.side_of_trajectory_line ~label:"t" bare).D.fingerprint = None)

let () =
  Alcotest.run "diff"
    [
      ( "alignment",
        [
          Alcotest.test_case "identical sides clean" `Quick
            test_identical_sides_clean;
          Alcotest.test_case "added and removed phases" `Quick
            test_added_and_removed;
          Alcotest.test_case "renamed phase paired" `Quick test_renamed_pairing;
          Alcotest.test_case "divergent rounds reject rename" `Quick
            test_rename_rejected_when_rounds_diverge;
          Alcotest.test_case "zero-baseline phase" `Quick
            test_zero_baseline_phase;
        ] );
      ( "significance",
        [
          Alcotest.test_case "seeded +20% regression is top row" `Quick
            test_seeded_regression_is_top_row;
          Alcotest.test_case "MAD suppresses noisy seconds" `Quick
            test_mad_suppresses_seconds;
          Alcotest.test_case "absolute seconds floor" `Quick
            test_min_seconds_floor;
          Alcotest.test_case "fingerprint refusal and --force" `Quick
            test_fingerprint_refusal_and_force;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "clean markdown verdict" `Quick
            test_markdown_clean_verdict;
          Alcotest.test_case "differential folded stacks" `Quick
            test_folded_output;
        ] );
      ( "loading",
        [
          Alcotest.test_case "trajectory line side" `Quick
            test_side_of_trajectory_line;
          Alcotest.test_case "report json side" `Quick test_side_of_report_json;
          Alcotest.test_case "parent report layout refused" `Quick
            test_refuses_parent_layout;
          Alcotest.test_case "missing spans array refused" `Quick
            test_refuses_missing_array;
          Alcotest.test_case "missing column refused" `Quick
            test_refuses_missing_column;
          Alcotest.test_case "one depth convention" `Quick
            test_one_depth_convention;
          Alcotest.test_case "load spec parsing" `Quick test_load_specs;
        ] );
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
          Alcotest.test_case "MAD widens the seconds gate" `Quick
            test_mad_widens_seconds_gate;
          Alcotest.test_case "MAD is per row" `Quick test_mad_is_per_row;
          Alcotest.test_case "seconds absolute floor" `Quick
            test_seconds_absolute_floor;
          Alcotest.test_case "MAD taken from either side" `Quick
            test_mad_taken_from_either_side;
          Alcotest.test_case "latest same-environment row of that name" `Quick
            test_latest_row_of_that_name;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "cross-fingerprint compare refused" `Quick
            test_cross_fingerprint_refused;
          Alcotest.test_case "fingerprint-less history ignored" `Quick
            test_fingerprint_less_history_ignored;
          Alcotest.test_case "fingerprint json round-trip" `Quick
            test_fingerprint_json_roundtrip;
        ] );
    ]
