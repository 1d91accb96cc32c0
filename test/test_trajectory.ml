(* Tests for Workload.Trajectory: the BENCH_trajectory.json file, and
   the rows it takes from a bench/e2e results.json — read strictly, so
   a missing key, an empty or non-numeric sample list, or a run with
   failed operations is refused, never recorded. The comparator's cases
   live in test_diff.ml. *)

module T = Workload.Trajectory
module D = Workload.Diff

let check = Alcotest.check
let int = Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let entry ?(rounds = 100) name =
  {
    T.name;
    columns = [ ("rounds", Json.int rounds); ("seconds", Json.float "%.4f" 0.5) ];
  }

(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Rows from the committed e2e fixture                                  *)
(* ------------------------------------------------------------------ *)

let fixture =
  lazy
    (match
       Json.parse
         (In_channel.with_open_bin "fixtures/e2e_results.json"
            In_channel.input_all)
     with
    | Ok doc -> doc
    | Error e -> Alcotest.fail e)

let rows doc =
  match T.of_e2e doc with Ok r -> r | Error e -> Alcotest.fail e

(* a member path; an array step names the element by its "name" *)
let named key v = Json.to_str (Json.member "name" v) = Some key

let step key = function
  | Json.Arr items ->
      Option.value ~default:Json.Null (List.find_opt (named key) items)
  | v -> Json.member key v

let get path =
  List.fold_left (fun v key -> step key v) (Lazy.force fixture) path

(* [edited path f] is the fixture with the value at [path] replaced by
   [f] of it, or dropped when [f] returns [None] *)
let edited path f =
  let rec edit path doc =
    match (path, doc) with
    | [], v -> f v
    | key :: rest, Json.Obj members ->
        Some
          (Json.Obj
             (List.filter_map
                (fun (k, v) ->
                  if k = key then Option.map (fun v -> (k, v)) (edit rest v)
                  else Some (k, v))
                members))
    | key :: rest, Json.Arr items ->
        Some
          (Json.Arr
             (List.filter_map
                (fun v -> if named key v then edit rest v else Some v)
                items))
    | _ :: _, v -> Some v
  in
  Option.get (edit path (Lazy.force fixture))

let column (e : T.entry) c =
  match List.assoc_opt c e.T.columns with
  | Some v -> Option.get (Json.to_float v)
  | None -> Alcotest.fail (Printf.sprintf "%s has no %s column" e.T.name c)

let test_fixture_rows () =
  let fp, entries = rows (Lazy.force fixture) in
  check Alcotest.string "the results' own fingerprint" "c02a8794fdec"
    fp.Workload.Stats.git_sha;
  let names = List.map (fun e -> e.T.name) entries in
  Alcotest.(check (list string))
    "rows per workload: headline, setup, steps unless they repeat the \
     headline, non-zero layers"
    [
      "e2e/rmat-greedy"; "e2e/rmat-greedy/setup"; "e2e/rmat-greedy/dsgraph.gen";
      "e2e/rmat-greedy/dsgraph.io_save"; "e2e/rmat-greedy/dsgraph.io_load";
      "e2e/rmat-greedy/workload.audit_certify";
      "e2e/rmat-greedy/workload.audit_verify";
      "e2e/rmat-greedy/baseline.greedy"; "e2e/grid-thm23";
      "e2e/grid-thm23/setup"; "e2e/grid-thm23/dsgraph.gen";
      "e2e/grid-thm23/workload.audit_certify";
      "e2e/grid-thm23/workload.audit_verify";
      "e2e/grid-thm23/strongdecomp.strong"; "e2e/grid-sim";
      "e2e/grid-sim/setup"; "e2e/grid-sim/dsgraph.gen";
      "e2e/grid-sim/weakdiam.sim_carve"; "e2e/grid-churn";
      "e2e/grid-churn/setup"; "e2e/grid-churn/step_p50";
      "e2e/grid-churn/step_p99"; "e2e/grid-churn/dsgraph.gen";
      "e2e/grid-churn/baseline.greedy"; "e2e/grid-churn/baseline.recarve";
      "e2e/grid-churn/workload.repair"; "e2e/grid-churn/workload.repair_self";
      "e2e/grid-churn/workload.verify_cert";
    ]
    names;
  (* rmat-greedy, grid-thm23 and grid-sim time one step per iteration,
     so their step rows would repeat the headline: 6 of 34 rows go *)
  check int "6 fewer rows" 28 (List.length entries);
  let row name = List.find (fun e -> e.T.name = name) entries in
  let head = row "e2e/rmat-greedy" in
  let values ?(workload = "rmat-greedy") key =
    List.filter_map Json.to_float
      (Option.get
         (Json.to_list
            (get [ "workloads"; workload; "end_to_end"; key; "values" ])))
  in
  let run = Workload.Stats.summarize (values "run_s") in
  Alcotest.(check (float 1e-6)) "seconds: median of run_s" run.median
    (column head "seconds");
  Alcotest.(check (float 1e-6)) "seconds_mad: MAD of run_s" run.mad
    (column head "seconds_mad");
  Alcotest.(check (float 0.)) "exact rounds" 7466. (column head "rounds");
  Alcotest.(check (float 0.)) "exact max_bits" 28. (column head "max_bits");
  Alcotest.(check (float 0.)) "exact messages" 0. (column head "messages");
  let p50 = Workload.Stats.summarize (values ~workload:"grid-churn" "step_ms_p50") in
  Alcotest.(check (float 1e-6)) "step_p50 in seconds" (p50.median /. 1000.)
    (column (row "e2e/grid-churn/step_p50") "seconds");
  Alcotest.(check (float 1e-6)) "a layer's seconds" 0.055863
    (column (row "e2e/rmat-greedy/dsgraph.gen") "seconds");
  Alcotest.(check (list string)) "a layer row holds seconds only" [ "seconds" ]
    (List.map fst (row "e2e/rmat-greedy/dsgraph.gen").T.columns)

(* the step rows are dropped only on equal samples: one sample of
   grid-sim's p99 off by 1e-9 relative brings its row back *)
let test_step_row_kept_when_it_differs () =
  let nudged =
    edited
      [ "workloads"; "grid-sim"; "end_to_end"; "step_ms_p99"; "values" ]
      (fun vs ->
        match Option.get (Json.to_list vs) with
        | v :: rest ->
            Some
              (Json.Arr
                 (Json.float "%.17g"
                    (Option.get (Json.to_float v) *. (1. +. 1e-9))
                 :: rest))
        | [] -> None)
  in
  let names = List.map (fun e -> e.T.name) (snd (rows nudged)) in
  check Alcotest.bool "p99 row back" true (List.mem "e2e/grid-sim/step_p99" names);
  check Alcotest.bool "p50 row still out" false (List.mem "e2e/grid-sim/step_p50" names);
  check int "one row more" 29 (List.length names)

let refused ~key doc =
  match T.of_e2e doc with
  | Ok _ -> Alcotest.fail ("accepted without " ^ key)
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names %s" e key)
        true (contains e key)

let test_bad_results_refused () =
  let drop _ = None and set v _ = Some v in
  refused ~key:"workloads" (edited [ "workloads" ] drop);
  refused ~key:"fingerprint" (edited [ "fingerprint" ] drop);
  refused ~key:"fingerprint" (edited [ "fingerprint"; "hostname" ] drop);
  refused ~key:"failed" (edited [ "failed" ] drop);
  refused ~key:"failed" (edited [ "failed" ] (set (Json.int 3)));
  refused ~key:"run_s"
    (edited [ "workloads"; "grid-churn"; "end_to_end"; "run_s" ] drop);
  refused ~key:"run_s.values"
    (edited
       [ "workloads"; "rmat-greedy"; "end_to_end"; "run_s"; "values" ]
       (set (Json.Arr [])));
  refused ~key:"setup_s.values"
    (edited
       [ "workloads"; "rmat-greedy"; "end_to_end"; "setup_s"; "values" ]
       (set (Json.Arr [ Json.int 1; Json.Str "fast" ])));
  refused ~key:"congest.rounds"
    (edited [ "workloads"; "grid-churn"; "per_layer"; "congest.rounds" ] drop);
  refused ~key:"dsgraph.gen.s"
    (edited
       [ "workloads"; "rmat-greedy"; "per_layer"; "dsgraph.gen.s"; "value" ]
       (set (Json.Str "n/a")))

(* the acceptance case of the one yardstick: an unchanged run recorded
   three times is clean, and a 2x slowdown seeded into one workload's
   run_s flags exactly that workload's headline seconds *)
let test_unchanged_clean_and_doubled_flagged () =
  let line doc =
    let fp, entries = rows doc in
    T.snapshot_json ~fingerprint:fp ~time:0.0 entries
  in
  let base = line (Lazy.force fixture) in
  let history = [ base; base ] in
  check int "three unchanged records: no regression" 0
    (List.length (D.regressions (D.against_history history base)));
  let doubled =
    edited
      [ "workloads"; "grid-churn"; "end_to_end"; "run_s"; "values" ]
      (fun vs ->
        Some
          (Json.Arr
             (List.map
                (fun v ->
                  Json.float "%.17g" (2.0 *. Option.get (Json.to_float v)))
                (Option.get (Json.to_list vs)))))
  in
  match D.regressions (D.against_history history (line doubled)) with
  | [ ((path, m) as r) ] ->
      check Alcotest.string "on the slowed workload" "e2e/grid-churn" path;
      check Alcotest.string "on its seconds" "seconds" m.D.m_name;
      Alcotest.(check bool) "rendered for CI" true
        (contains (D.regression_line r) "regression: e2e/grid-churn seconds: ")
  | regs ->
      Alcotest.fail
        (Printf.sprintf "expected one regression, got: %s"
           (String.concat "; " (List.map D.regression_line regs)))

let () =
  Alcotest.run "trajectory"
    [
      ( "file",
        [
          Alcotest.test_case "malformed line warned and skipped" `Quick
            test_malformed_line_warned_and_skipped;
          Alcotest.test_case "write/read round-trip" `Quick
            test_write_read_roundtrip;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "fixture rows" `Quick test_fixture_rows;
          Alcotest.test_case "step row kept when it differs" `Quick
            test_step_row_kept_when_it_differs;
          Alcotest.test_case "bad results refused" `Quick
            test_bad_results_refused;
          Alcotest.test_case "unchanged clean, doubled run_s flagged" `Quick
            test_unchanged_clean_and_doubled_flagged;
        ] );
    ]
