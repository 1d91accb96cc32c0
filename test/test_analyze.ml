(* Tests for the typed whole-program analyzer (tools/analyze): the bad
   fixtures must trip the domain-safety and hot-allocation rules, the
   good fixtures (same shapes, annotated) must pass, module aliases must
   resolve interprocedurally, config/baseline must suppress, the JSON
   report must be deterministic, and the shipped library tree itself
   must analyze clean. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let test_dir = Filename.dirname Sys.executable_name
let fixtures_dir = Filename.concat test_dir "fixtures"

let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then failwith "dune-project not found above test dir"
      else up parent
  in
  up test_dir

(* one sweep over the five fixture units, shared by the tests below *)
let fixture_result = lazy (Analyze_core.analyze [ fixtures_dir ])

let in_file name xs field = List.filter (fun x -> field x = name) xs

let findings_of name =
  let r = Lazy.force fixture_result in
  in_file name r.Analyze_core.r_findings (fun f -> f.Analyze_core.f_file)

let entries_of name =
  let r = Lazy.force fixture_result in
  in_file name r.Analyze_core.r_entries (fun e -> e.Analyze_core.e_file)

let hots_of name =
  let r = Lazy.force fixture_result in
  in_file name r.Analyze_core.r_hots (fun h -> h.Analyze_core.h_file)

let entry binding entries =
  match
    List.filter (fun e -> e.Analyze_core.e_binding = binding) entries
  with
  | [ e ] -> e
  | [] -> failwith ("no inventory entry for " ^ binding)
  | _ -> failwith ("ambiguous inventory entry for " ^ binding)

let test_units_loaded () =
  let r = Lazy.force fixture_result in
  check bool "all five fixture units loaded" true
    (r.Analyze_core.r_units >= 5)

let test_bad_domain () =
  let fs = findings_of "bad_domain.ml" in
  check int "table, hits, global_stats, cells all flagged" 4
    (List.length fs);
  List.iter
    (fun f ->
      check bool "rule is domain-unsafe" true
        (f.Analyze_core.f_rule = "domain-unsafe"))
    fs;
  let details = String.concat " | " (List.map (fun f -> f.Analyze_core.f_detail) fs) in
  let has sub =
    let n = String.length sub and m = String.length details in
    let rec go i =
      i + n <= m && (String.sub details i n = sub || go (i + 1))
    in
    go 0
  in
  check bool "module-global cause reported" true (has "module-global");
  check bool "closure-capture cause reported" true (has "escaping closure");
  check bool "mutable record creation inventoried" true (has "global_stats");
  (* the mutable-field type declaration is inventoried too *)
  let r = Lazy.force fixture_result in
  check bool "stats type with mutable fields recorded" true
    (List.exists
       (fun t ->
         t.Analyze_core.t_name = "stats"
         && t.Analyze_core.t_fields = [ "count"; "sum" ])
       r.Analyze_core.r_mutable_types)

let test_good_domain () =
  check int "annotated twin passes clean" 0
    (List.length (findings_of "good_domain.ml"));
  let es = entries_of "good_domain.ml" in
  check bool "local scratch classified local" true
    ((entry "zeros" es).Analyze_core.e_class = Analyze_core.Local);
  check bool "returned table classified owned" true
    ((entry "fresh_table" es).Analyze_core.e_class = Analyze_core.Owned);
  check bool "callee-handed bytes classified owned" true
    ((entry "b" es).Analyze_core.e_class = Analyze_core.Owned);
  let registry = entry "registry" es in
  check bool "module global still shared" true
    (registry.Analyze_core.e_class = Analyze_core.Shared);
  check bool "annotation reason preserved" true
    (match registry.Analyze_core.e_reason with
    | Some r -> String.length r > 0
    | None -> false);
  check bool "record-captured cells shared but annotated" true
    ((entry "cells" es).Analyze_core.e_class = Analyze_core.Shared)

let test_bad_hot () =
  let hots = hots_of "bad_hot.ml" in
  check int "all four [@hot] functions analyzed" 4 (List.length hots);
  List.iter
    (fun h ->
      check bool
        (h.Analyze_core.h_fn ^ " allocates")
        true
        (h.Analyze_core.h_allocs >= 1))
    hots;
  let details =
    String.concat " | "
      (List.map
         (fun f -> f.Analyze_core.f_detail)
         (findings_of "bad_hot.ml"))
  in
  let has sub =
    let n = String.length sub and m = String.length details in
    let rec go i =
      i + n <= m && (String.sub details i n = sub || go (i + 1))
    in
    go 0
  in
  check bool "tuple allocation found" true (has "tuple allocation");
  check bool "boxed arithmetic found" true (has "boxed arithmetic");
  check bool "interprocedural chain reported" true (has "Hot_dep.leaky");
  check bool "module alias resolved to the callee" true (has "A.leaky")

let test_good_hot () =
  check int "clean [@hot] functions pass" 0
    (List.length (findings_of "good_hot.ml"));
  let hots = hots_of "good_hot.ml" in
  check int "all three [@hot] functions analyzed" 3 (List.length hots);
  let by name =
    List.find (fun h -> h.Analyze_core.h_fn = name) hots
  in
  check bool "[@alloc_ok] ref accepted, not ignored" true
    ((by "sum").Analyze_core.h_accepted >= 1);
  check bool "callee-level [@alloc_ok] accepted" true
    ((by "drain").Analyze_core.h_accepted >= 1);
  check int "interprocedural clean callee stays clean" 0
    ((by "lookup").Analyze_core.h_allocs)

let test_config_suppression () =
  let disabled =
    Analyze_core.analyze
      ~config:{ Analyze_core.allow = []; disabled = [ "domain-unsafe" ] }
      [ fixtures_dir ]
  in
  check int "disabled rule is silent" 0
    (List.length
       (List.filter
          (fun f -> f.Analyze_core.f_rule = "domain-unsafe")
          disabled.Analyze_core.r_findings));
  let allowed =
    Analyze_core.analyze
      ~config:
        { Analyze_core.allow = [ ("hot-alloc", "bad_hot") ]; disabled = [] }
      [ fixtures_dir ]
  in
  check int "allow list is per-rule and per-path" 0
    (List.length
       (List.filter
          (fun f -> f.Analyze_core.f_rule = "hot-alloc")
          allowed.Analyze_core.r_findings));
  check bool "other rules still fire" true
    (List.exists
       (fun f -> f.Analyze_core.f_rule = "domain-unsafe")
       allowed.Analyze_core.r_findings)

let test_baseline_roundtrip () =
  let r = Lazy.force fixture_result in
  let keys =
    List.filter_map
      (fun f ->
        if f.Analyze_core.f_file = "bad_domain.ml" then
          Some f.Analyze_core.f_key
        else None)
      r.Analyze_core.r_findings
  in
  let path = Filename.temp_file "analyze_baseline" ".json" in
  let oc = open_out path in
  output_string oc
    (Printf.sprintf "{\n  \"accept\": [%s]\n}\n"
       (String.concat ", " (List.map (fun k -> "\"" ^ k ^ "\"") keys)));
  close_out oc;
  let accept =
    match Analyze_core.read_baseline path with
    | Ok keys -> keys
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  check int "every key survives the round-trip" (List.length keys)
    (List.length accept);
  let open_findings, accepted =
    Analyze_core.split_baseline ~accept r.Analyze_core.r_findings
  in
  check int "accepted findings split out" (List.length keys)
    (List.length accepted);
  check bool "bad_domain findings demoted" true
    (List.for_all
       (fun f -> f.Analyze_core.f_file <> "bad_domain.ml")
       open_findings);
  check bool "hot findings stay open" true
    (List.exists
       (fun f -> f.Analyze_core.f_file = "bad_hot.ml")
       open_findings);
  check bool "missing baseline file means empty accept list" true
    (Analyze_core.read_baseline "/nonexistent/baseline.json" = Ok [])

let test_baseline_rejects_malformed () =
  (* only the strings of the accept array are keys: a string elsewhere
     in the file is not, and a truncated file is an error *)
  let read text =
    let path = Filename.temp_file "analyze_baseline" ".json" in
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    let got = Analyze_core.read_baseline path in
    Sys.remove path;
    got
  in
  check bool "strings outside accept ignored" true
    (read {|{"accept":[],"note":"see docs"}|} = Ok []);
  List.iter
    (fun text ->
      check bool ("rejected: " ^ text) true (Result.is_error (read text)))
    [
      {|{"accept": "oops|};
      {|{"accept":["a",1]}|};
      {|{"accept":"a"}|};
      {|{"note":"no accept member"}|};
    ]

let test_json_deterministic () =
  let a = Analyze_core.analyze [ fixtures_dir ] in
  let b = Analyze_core.analyze [ fixtures_dir ] in
  check bool "two sweeps, one byte-identical report" true
    (Analyze_core.to_json a = Analyze_core.to_json b);
  let json = Analyze_core.to_json a in
  List.iter
    (fun (rule, _) ->
      let needle = "\"" ^ rule ^ "\"" in
      let n = String.length needle and m = String.length json in
      let rec go i =
        i + n <= m && (String.sub json i n = needle || go (i + 1))
      in
      check bool ("counts mention " ^ rule) true (go 0))
    Analyze_core.rules

let test_tree_analyzes_clean () =
  let root = repo_root () in
  let result = Analyze_core.analyze [ Filename.concat root "lib" ] in
  (* tier-1 runs `dune build` first, so the lib cmts exist; if this is
     a bare `dune runtest` in a fresh tree there is nothing to check *)
  if result.Analyze_core.r_units > 0 then begin
    check bool "found the library tree" true
      (result.Analyze_core.r_units > 30);
    List.iter
      (fun f -> Format.eprintf "%a@." Analyze_core.pp_finding f)
      result.Analyze_core.r_findings;
    check int "shipped tree analyzes clean" 0
      (List.length result.Analyze_core.r_findings);
    check bool "every shared value carries a reason" true
      (List.for_all
         (fun e ->
           e.Analyze_core.e_class <> Analyze_core.Shared
           || e.Analyze_core.e_reason <> None)
         result.Analyze_core.r_entries);
    check bool "the [@hot] annotations are visible" true
      (List.length result.Analyze_core.r_hots >= 4)
  end

let () =
  Alcotest.run "analyze"
    [
      ( "analyze",
        [
          Alcotest.test_case "fixture units load" `Quick test_units_loaded;
          Alcotest.test_case "unannotated shared state flagged" `Quick
            test_bad_domain;
          Alcotest.test_case "annotated twin passes, lattice correct" `Quick
            test_good_domain;
          Alcotest.test_case "[@hot] allocations flagged through aliases"
            `Quick test_bad_hot;
          Alcotest.test_case "clean and [@alloc_ok] hot paths pass" `Quick
            test_good_hot;
          Alcotest.test_case "allow and disable lists" `Quick
            test_config_suppression;
          Alcotest.test_case "baseline accept keys round-trip" `Quick
            test_baseline_roundtrip;
          Alcotest.test_case "malformed baseline rejected" `Quick
            test_baseline_rejects_malformed;
          Alcotest.test_case "deterministic JSON with per-rule counts"
            `Quick test_json_deterministic;
          Alcotest.test_case "shipped tree analyzes clean" `Quick
            test_tree_analyzes_clean;
        ] );
    ]
