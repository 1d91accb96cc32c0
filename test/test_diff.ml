(* Tests for Workload.Diff: phase-tree alignment (matched / added /
   removed / renamed), the per-metric significance gates (pure relative
   for logical columns, MAD-widened with an absolute floor for
   seconds), fingerprint refusal, side loading, and the rendered
   outputs. *)

module D = Workload.Diff
module T = Workload.Trajectory
module S = Workload.Stats

let check = Alcotest.check

let phase ?(depth = 1) ?(rounds = 100.0) ?(messages = 1000.0)
    ?(bits = 5000.0) ?(seconds = 1.0) ?(mw = 10000.0) path =
  { D.path; depth; rounds; messages; bits; seconds; minor_words = mw }

let side ?fp ?(mad = 0.0) ?(label = "side") phases =
  { D.label; fingerprint = fp; seconds_mad = mad; phases }

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
        if p.D.path = "carve/grow" then { p with D.seconds = 1.2 } else p)
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
    (metric (row d "carve/grow") "rounds").D.m_sig;
  check Alcotest.(list string) "significant_rows agrees" [ "carve/grow" ]
    (List.map (fun r -> r.D.r_path) (D.significant_rows d))

let test_mad_suppresses_seconds () =
  (* same +20% delta, but the runs recorded a MAD of 0.1s: the gate
     widens to 3*0.1 = 0.3 > 0.2, so the delta reads as noise *)
  let slowed =
    List.map
      (fun p ->
        if p.D.path = "carve/grow" then { p with D.seconds = 1.2 } else p)
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

let fp ?(sha = "abc123") () =
  {
    S.git_sha = sha;
    ocaml_version = "5.1.1";
    word_size = 64;
    flambda = false;
    hostname = "ci";
  }

let test_fingerprint_refusal_and_force () =
  let a = side ~fp:(fp ()) base in
  let b = side ~fp:(fp ~sha:"def456" ()) base in
  (match D.compare a b with
  | Error msg ->
      Alcotest.(check bool) "message names both shas" true
        (let has s sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         has msg "abc123" && has msg "def456")
  | Ok _ -> Alcotest.fail "cross-fingerprint compare not refused");
  let d = ok (D.compare ~options:{ D.default_options with force = true } a b) in
  Alcotest.(check bool) "forced flag set" true d.D.forced;
  check Alcotest.int "still compares" 0 d.D.significant;
  (* same fingerprints: no refusal, not forced *)
  let d2 = ok (D.compare a (side ~fp:(fp ()) base)) in
  Alcotest.(check bool) "same env not forced" false d2.D.forced

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

let entry ?(rounds = 100) ?(seconds = 0.5) ?(mad = 0.0) name =
  {
    T.name;
    rounds;
    messages = 5000;
    max_bits = 64;
    phases = 4;
    seconds;
    seconds_mad = mad;
    minor_words_per_node = 1000.0;
    peak_heap_mb = 12.0;
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
  Alcotest.(check (float 1e-9)) "rounds" 100.0 g.D.rounds;
  Alcotest.(check (float 1e-9)) "bits from max_bits" 64.0 g.D.bits;
  Alcotest.(check (float 1e-9)) "largest row MAD wins" 0.02 s.D.seconds_mad;
  Alcotest.(check bool) "fingerprint parsed" true (s.D.fingerprint = Some (fp ()))

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
  let s = ok (D.side_of_report_json ~label:"rep" text) in
  Alcotest.(check (float 1e-9)) "report-level MAD" 0.003 s.D.seconds_mad;
  Alcotest.(check bool) "fingerprint parsed" true (s.D.fingerprint = Some (fp ()));
  check Alcotest.int "one phase per spans row" 2 (List.length s.D.phases);
  let carve = List.find (fun p -> p.D.path = "carve") s.D.phases in
  Alcotest.(check (float 1e-9)) "minor words from the row" 4200.0
    carve.D.minor_words;
  check Alcotest.int "root depth" 1 carve.D.depth;
  let unsp = List.find (fun p -> p.D.path = "(unspanned)") s.D.phases in
  Alcotest.(check (float 1e-9)) "unspanned phase kept" 77.0 unsp.D.minor_words;
  (* not a report: refused with the label in the message *)
  match D.side_of_report_json ~label:"rep" "{\"x\":1}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-report JSON accepted"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

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
  let s = ok (D.side_of_report_json ~label:"rep" json) in
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
    match s.D.phases with p :: _ -> p.D.rounds | [] -> Alcotest.fail "no phases"
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
    ]
