(* Command-line front end: run any registered decomposition or carving
   algorithm on any workload family and print the measured parameters.

     decompose run   --algo thm2.3 --family grid --n 1024
     decompose carve --algo thm2.2 --family path --n 4096 --epsilon 0.25
     decompose lemma31 --family subdiv --n 2048
     decompose report thm2.3 grid --n 1024 --chrome run.json
     decompose list *)

open Cmdliner
module Suite = Workload.Suite
module Algorithms = Workload.Algorithms
module Measure = Workload.Measure

let write_file path text =
  let dir = Filename.dirname path in
  (if not (Sys.file_exists dir) then
     try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let oc = open_out path in
  output_string oc text;
  close_out oc

let family_arg =
  let doc =
    "Workload family: " ^ String.concat ", " (List.map (fun f -> f.Suite.name) Suite.all)
  in
  Arg.(value & opt string "grid" & info [ "family"; "f" ] ~docv:"FAMILY" ~doc)

let n_arg =
  Arg.(value & opt int 1024 & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Approximate node count.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let epsilon_arg =
  Arg.(
    value & opt float 0.5
    & info [ "epsilon"; "e" ] ~docv:"EPS" ~doc:"Boundary parameter in (0,1).")

let input_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "input"; "i" ] ~docv:"FILE"
        ~doc:
          "Load the graph from an edge-list file (one 'u v' pair per line, \
           optional '# n <count>' header) instead of generating a workload \
           family.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:"Write a Graphviz rendering of the clustering to FILE.")

let lookup_family name =
  try Suite.find name
  with Not_found ->
    Format.eprintf "unknown family %s@." name;
    exit 2

(* when --input is given, wrap the file as a single-use family *)
let family_or_input family input =
  match input with
  | None -> lookup_family family
  | Some path ->
      {
        Suite.name = Filename.basename path;
        build = (fun ~seed:_ ~n:_ -> Dsgraph.Io.load path);
      }

let run_cmd =
  let algo_arg =
    let doc =
      "Decomposition algorithm: "
      ^ String.concat ", "
          (List.map (fun (d : Algorithms.decomposer) -> d.name)
             Algorithms.decomposers)
    in
    Arg.(value & opt string "thm2.3" & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)
  in
  let run algo family n seed input dot =
    let d =
      try Algorithms.find_decomposer algo
      with Not_found ->
        Format.eprintf "unknown algorithm %s@." algo;
        exit 2
    in
    let family = family_or_input family input in
    let row, decomp, g = Measure.decomposition_result ~seed d family ~n in
    Format.printf "%s -- %s@.@." d.Algorithms.name d.Algorithms.reference;
    Measure.pp_decomp_table Format.std_formatter [ row ];
    (match dot with
    | None -> ()
    | Some path ->
        let clustering = Cluster.Decomposition.clustering decomp in
        let oc = open_out path in
        output_string oc
          (Dsgraph.Io.to_dot
             ~cluster_of:(Cluster.Clustering.cluster_of clustering)
             g);
        close_out oc;
        Format.printf "wrote %s@." path);
    if not row.Measure.valid then exit 1
  in
  let doc = "compute a network decomposition and report (C, D, rounds)" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ algo_arg $ family_arg $ n_arg $ seed_arg $ input_arg
      $ dot_arg)

let carve_cmd =
  let algo_arg =
    let doc =
      "Carving algorithm: "
      ^ String.concat ", "
          (List.map (fun (c : Algorithms.carver) -> c.name) Algorithms.carvers)
    in
    Arg.(value & opt string "thm2.2" & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)
  in
  let run algo family n seed epsilon =
    let c =
      try Algorithms.find_carver algo
      with Not_found ->
        Format.eprintf "unknown algorithm %s@." algo;
        exit 2
    in
    let family = lookup_family family in
    let row = Measure.carving_row ~seed c family ~n ~epsilon in
    Format.printf "%s -- %s@.@." c.Algorithms.name c.Algorithms.reference;
    Measure.pp_carve_table Format.std_formatter [ row ];
    if not row.Measure.valid then exit 1
  in
  let doc = "run a single ball carving and report (diameter, dead, rounds)" in
  Cmd.v (Cmd.info "carve" ~doc)
    Term.(const run $ algo_arg $ family_arg $ n_arg $ seed_arg $ epsilon_arg)

let lemma31_cmd =
  let run family n seed epsilon =
    let family = lookup_family family in
    let g = family.Suite.build ~seed ~n in
    let a = Strongdecomp.Barrier.analyze ~epsilon g in
    Format.printf "lemma 3.1 on %s (n=%d, eps=%.3f):@." family.Suite.name
      a.Strongdecomp.Barrier.n epsilon;
    match a.Strongdecomp.Barrier.outcome with
    | `Cut ->
        Format.printf
          "  balanced sparse cut; separator %d nodes (eps*n/ln n scale %.1f)@."
          a.separator_size a.separator_bound
    | `Component ->
        Format.printf
          "  large component; diameter %d (ln^2 n/eps scale %.1f), boundary %d@."
          a.u_diameter a.diameter_scale a.separator_size
  in
  let doc = "run Lemma 3.1 (balanced sparse cut or large component)" in
  Cmd.v (Cmd.info "lemma31" ~doc)
    Term.(const run $ family_arg $ n_arg $ seed_arg $ epsilon_arg)

let sweep_cmd =
  let algo_arg =
    Arg.(
      value & opt string "thm2.3"
      & info [ "algo"; "a" ] ~docv:"ALGO" ~doc:"Decomposition algorithm.")
  in
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 256; 512; 1024; 2048 ]
      & info [ "sizes" ] ~docv:"N1,N2,..." ~doc:"Node counts to sweep.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write CSV here (default stdout).")
  in
  let run algo family seed sizes out =
    let d =
      try Algorithms.find_decomposer algo
      with Not_found ->
        Format.eprintf "unknown algorithm %s@." algo;
        exit 2
    in
    let family = lookup_family family in
    let rows = List.map (fun n -> Measure.decomposition_row ~seed d family ~n) sizes in
    let csv = Measure.decomp_csv rows in
    (match out with
    | None -> print_string csv
    | Some path ->
        let oc = open_out path in
        output_string oc csv;
        close_out oc;
        Format.printf "wrote %s (%d rows)@." path (List.length rows));
    if List.exists (fun (r : Measure.decomp_row) -> not r.Measure.valid) rows
    then exit 1
  in
  let doc = "sweep one algorithm over a size series and emit CSV" in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run $ algo_arg $ family_arg $ seed_arg $ sizes_arg $ out_arg)

let faults_cmd =
  let algo_arg =
    let parse s =
      match s with
      | "ls" -> Ok Workload.Faults.Ls
      | "weakdiam" -> Ok Workload.Faults.Weakdiam
      | _ -> Error (`Msg (Printf.sprintf "unknown fault algorithm %s" s))
    in
    let print ppf a =
      Format.pp_print_string ppf
        (match a with Workload.Faults.Ls -> "ls" | Workload.Faults.Weakdiam -> "weakdiam")
    in
    Arg.(
      value
      & opt (conv (parse, print)) Workload.Faults.Ls
      & info [ "algo"; "a" ] ~docv:"ALGO"
          ~doc:"Algorithm to run through the reliable transport: ls, weakdiam.")
  in
  let drop_arg =
    Arg.(
      value & opt float 0.05
      & info [ "drop" ] ~docv:"P" ~doc:"IID message drop probability in [0,1].")
  in
  let crashes_arg =
    Arg.(
      value & opt int 0
      & info [ "crashes" ] ~docv:"K"
          ~doc:"Number of crash-stop faults (seeded nodes and rounds).")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Run the full drop x crash grid (drops 0/0.01/0.05/0.1, crashes \
             0/2) instead of a single scenario, and emit CSV.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write CSV here (default stdout).")
  in
  let run algorithm family n seed epsilon drop crashes sweep out =
    (* surface the simulator's incomplete-run warnings *)
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Warning);
    if not (drop >= 0.0 && drop <= 1.0) then begin
      Format.eprintf "drop rate %g not in [0,1]@." drop;
      exit 2
    end;
    if crashes < 0 then begin
      Format.eprintf "crash count %d is negative@." crashes;
      exit 2
    end;
    let _ = lookup_family family in
    let rows =
      if sweep then
        Workload.Faults.sweep ~seed algorithm ~family ~n ~epsilon
      else
        [
          Workload.Faults.run
            { Workload.Faults.algorithm; family; n; epsilon; drop; crashes; seed };
        ]
    in
    (if sweep then
       let csv = Workload.Faults.csv rows in
       match out with
       | None -> print_string csv
       | Some path ->
           let oc = open_out path in
           output_string oc csv;
           close_out oc;
           Format.printf "wrote %s (%d rows)@." path (List.length rows)
     else
       List.iter
         (fun r -> Format.printf "%a@." Workload.Faults.pp_row r)
         rows);
    if List.exists (fun (r : Workload.Faults.row) -> not r.valid) rows then
      exit 1
  in
  let doc =
    "run a distributed carving through the reliable transport under a seeded \
     fault adversary and check graceful degradation"
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      const run $ algo_arg $ family_arg $ n_arg $ seed_arg $ epsilon_arg
      $ drop_arg $ crashes_arg $ sweep_arg $ out_arg)

let conform_cmd =
  let target_arg =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"TARGET"
          ~doc:
            "What to verify: 'all' (registry + node programs), 'registry', \
             'programs', or the name of a single registered decomposer or \
             carver.")
  in
  let no_adversarial_arg =
    Arg.(
      value & flag
      & info [ "no-adversarial" ]
          ~doc:"Skip the seeded-adversary leg of the program checks.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the full conformance reports as JSON to FILE.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write per-check CSV to FILE.")
  in
  let run target family n seed epsilon no_adversarial json out =
    let family = lookup_family family in
    let adversarial = not no_adversarial in
    let rows =
      match target with
      | "all" -> Workload.Conform.suite ~seed ~epsilon ~adversarial family ~n
      | "registry" -> Workload.Conform.registry_rows ~seed ~epsilon family ~n
      | "programs" ->
          Workload.Conform.program_rows ~seed ~epsilon ~adversarial:false
            family ~n
          @
          if adversarial then
            Workload.Conform.program_rows ~seed ~epsilon ~adversarial:true
              family ~n
          else []
      | name -> (
          match Algorithms.find_decomposer name with
          | d -> [ Workload.Conform.decomposer_row ~seed d family ~n ]
          | exception Not_found -> (
              match Algorithms.find_carver name with
              | c -> [ Workload.Conform.carver_row ~seed ~epsilon c family ~n ]
              | exception Not_found ->
                  Format.eprintf
                    "unknown target %s (want all, registry, programs, or an \
                     algorithm name)@."
                    name;
                  exit 2))
    in
    Workload.Conform.pp_table Format.std_formatter rows;
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Workload.Conform.csv rows);
        close_out oc;
        Format.printf "wrote %s@." path);
    (match json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Workload.Conform.to_json rows);
        close_out oc;
        Format.printf "wrote %s@." path);
    if List.exists (fun r -> not (Workload.Conform.ok r)) rows then exit 1
  in
  let doc =
    "verify CONGEST model invariants (replay determinism, bandwidth \
     cross-check, edge discipline, halt monotonicity, inbox-order \
     robustness) over the algorithm registry and the node programs"
  in
  Cmd.v (Cmd.info "conform" ~doc)
    Term.(
      const run $ target_arg $ family_arg $ n_arg $ seed_arg $ epsilon_arg
      $ no_adversarial_arg $ json_arg $ out_arg)

(* the exact-sum checks of the per-span table: self words against the
   recorder's window totals, self rounds, messages and bits against the
   replayed trace (only when nothing was dropped at capacity) *)
let attribution_checks (r : Workload.Report.t) =
  let open Congest in
  let tot = r.res_totals in
  let words f =
    List.fold_left
      (fun acc (s : Span.rollup) ->
        acc +. Option.fold ~none:0.0 ~some:f s.resource)
      0.0 r.spans
  in
  let minor = words (fun x -> x.Resource.r_minor_words) in
  let major = words (fun x -> x.Resource.r_major_words) in
  let resource =
    if minor = tot.t_minor_words && major = tot.t_major_words then
      Ok
        (Printf.sprintf
           "resource attribution check: %.0f minor words, %.0f major words, \
            %.3f s fully attributed (peak heap %.1f MB)"
           tot.t_minor_words tot.t_major_words tot.t_seconds
           (Resource.peak_heap_mb tot))
    else
      Error
        (Printf.sprintf
           "resource attribution mismatch: spans (%.0f minor, %.0f major \
            words) vs process (%.0f minor, %.0f major words)"
           minor major tot.t_minor_words tot.t_major_words)
  in
  let logical () =
    let c = Metrics.count r.metrics in
    let rounds = c "rounds" + c "cost_rounds" in
    let messages = c "messages_sent" + c "cost_messages" in
    let bits =
      Metrics.hist_sum (Metrics.histogram r.metrics "bits_per_message")
    in
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 r.spans in
    let s_rounds = sum (fun (s : Span.rollup) -> s.rounds) in
    let s_messages = sum (fun (s : Span.rollup) -> s.messages) in
    let s_bits = sum (fun (s : Span.rollup) -> s.bits) in
    if s_rounds = rounds && s_messages = messages && s_bits = bits then
      Ok
        (Printf.sprintf
           "attribution check: %d rounds, %d messages, %d bits fully attributed"
           rounds messages bits)
    else
      Error
        (Printf.sprintf
           "attribution mismatch: spans (%d rounds, %d msgs, %d bits) vs \
            trace (%d rounds, %d msgs, %d bits)"
           s_rounds s_messages s_bits rounds messages bits)
  in
  resource :: (if Trace.truncated r.trace = 0 then [ logical () ] else [])

let report_cmd =
  let algo_pos =
    Arg.(
      value & pos 0 string "thm2.3"
      & info [] ~docv:"ALGO"
          ~doc:
            "Algorithm to report on (a decomposer name; carver names work \
             too).")
  in
  let family_pos =
    Arg.(value & pos 1 string "grid" & info [] ~docv:"FAMILY" ~doc:"Workload family.")
  in
  let out_dir_arg =
    Arg.(
      value & opt string "bench_results"
      & info [ "out-dir"; "o" ] ~docv:"DIR"
          ~doc:"Directory for the report, trace, metrics and phase files.")
  in
  let weight_arg =
    let weight_conv =
      Arg.enum
        [
          ("rounds", `Rounds);
          ("messages", `Messages);
          ("bits", `Bits);
          ("seconds", `Seconds);
          ("minor-words", `Minor_words);
          ("major-words", `Major_words);
        ]
    in
    Arg.(
      value & opt weight_conv `Rounds
      & info [ "weight"; "w" ] ~docv:"WEIGHT"
          ~doc:
            "Folded-stack weight: $(b,rounds), $(b,messages) or $(b,bits) \
             (logical costs from the trace), or $(b,seconds), \
             $(b,minor-words), $(b,major-words) (from the resource \
             recorder).")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write the span timeline as Chrome trace-event (catapult) \
             JSON to $(i,FILE) — open it in chrome://tracing or \
             Perfetto.")
  in
  let run algo family n seed epsilon out_dir weight chrome =
    let family = lookup_family family in
    let report =
      match Algorithms.find_decomposer algo with
      | d -> Workload.Report.of_decomposer ~seed d family ~n
      | exception Not_found -> (
          match Algorithms.find_carver algo with
          | c -> Workload.Report.of_carver ~seed ~epsilon c family ~n
          | exception Not_found ->
              Format.eprintf "unknown algorithm %s@." algo;
              exit 2)
    in
    Workload.Report.pp_summary Format.std_formatter report;
    Format.printf "%a@.@." Congest.Causal.pp report.Workload.Report.causal;
    Congest.Span.pp_rollups Format.std_formatter report.Workload.Report.spans;
    let files = Workload.Report.save ~dir:out_dir ~weight ?chrome report in
    List.iter (Format.printf "wrote %s@.") files;
    let checks = attribution_checks report in
    List.iter
      (function
        | Ok line -> Format.printf "%s@." line
        | Error line -> Format.eprintf "%s@." line)
      checks;
    (match report.Workload.Report.audit_verdict with
    | Ok () -> ()
    | Error e ->
        Format.eprintf "certificate audit rejected: %s@." e;
        exit 1);
    if List.exists Result.is_error checks || not report.Workload.Report.valid
    then exit 1
  in
  let doc =
    "run one algorithm with a trace sink, phase spans and a resource \
     recorder attached and write every artifact of the run: the report \
     (markdown + JSON: measured row, metrics, per-span table, causal \
     critical path and slack, and an independently verified per-cluster \
     certificate audit), the JSONL event stream, the metrics (CSV/JSONL), \
     the per-span table (CSV) with its flamegraph folded stacks, and \
     optionally a Chrome trace ($(b,--chrome)); the per-span self totals \
     are checked to sum exactly to the run's totals"
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ algo_pos $ family_pos $ n_arg $ seed_arg $ epsilon_arg
      $ out_dir_arg $ weight_arg $ chrome_arg)

let repair_cmd =
  let algo_pos =
    Arg.(
      value & pos 0 string "greedy"
      & info [] ~docv:"ALGO"
          ~doc:
            "Algorithm to heal (a decomposer name, or a carver name with \
             $(b,--carve)).")
  in
  let family_pos =
    Arg.(
      value & pos 1 string "grid"
      & info [] ~docv:"FAMILY" ~doc:"Workload family.")
  in
  let carve_arg =
    Arg.(
      value & flag
      & info [ "carve" ]
          ~doc:"Treat ALGO as a carver (Table 2) instead of a decomposer.")
  in
  let steps_arg =
    Arg.(
      value & opt int 4
      & info [ "steps" ] ~docv:"K" ~doc:"Fault deltas to inject and repair.")
  in
  let crashes_arg =
    Arg.(
      value & opt int 1
      & info [ "crashes" ] ~docv:"K" ~doc:"Crash-stops per delta (at most).")
  in
  let revive_arg =
    Arg.(
      value & opt float 0.25
      & info [ "revive-prob" ] ~docv:"P"
          ~doc:"Per-step revival probability of each down node.")
  in
  let dels_arg =
    Arg.(
      value & opt int 1
      & info [ "edge-dels" ] ~docv:"K" ~doc:"Edge deletions per delta.")
  in
  let adds_arg =
    Arg.(
      value & opt int 1
      & info [ "edge-adds" ] ~docv:"K" ~doc:"Edge insertions per delta.")
  in
  let halo_arg =
    Arg.(
      value & opt int 1
      & info [ "halo" ] ~docv:"H"
          ~doc:
            "Dirty every cluster within distance H of a fault site (0 = \
             minimal certified invalidation).")
  in
  let max_touched_arg =
    Arg.(
      value & opt float 1.0
      & info [ "max-touched" ] ~docv:"F"
          ~doc:
            "Fail if a repair touches more than this fraction of the \
             survivors (>= 1 disables the bound).")
  in
  let run algo family n seed epsilon carve steps crashes revive_prob edge_dels
      edge_adds halo max_touched =
    ignore (lookup_family family);
    let algo_spec =
      if carve then Workload.Chaos.Carver algo else Workload.Chaos.Decomposer algo
    in
    (match algo_spec with
    | Workload.Chaos.Decomposer a -> (
        try ignore (Algorithms.find_decomposer a)
        with Not_found ->
          Format.eprintf "unknown decomposer %s@." a;
          exit 2)
    | Workload.Chaos.Carver a -> (
        try ignore (Algorithms.find_carver a)
        with Not_found ->
          Format.eprintf "unknown carver %s@." a;
          exit 2));
    let sp =
      Workload.Chaos.spec algo_spec ~family ~n ~seed ~epsilon ~steps ~crashes
        ~revive_prob ~edge_dels ~edge_adds ~halo ~max_touched
    in
    let r = Workload.Chaos.run sp in
    Format.printf "%s on %s (n=%d, seed=%d, halo=%d)@.@."
      (Workload.Chaos.algo_label algo_spec)
      family n seed halo;
    List.iter
      (fun (row : Workload.Chaos.step_row) ->
        Format.printf
          "step %d: -%d nodes +%d nodes -%d/+%d edges | dirty=%d carried=%d \
           fresh=%d touched=%d/%d (%.1f%%) | repair %.2fms vs scratch %.2fms \
           (x%.2f)%s@."
          row.Workload.Chaos.step row.Workload.Chaos.d_crashes
          row.Workload.Chaos.d_revives row.Workload.Chaos.d_dels
          row.Workload.Chaos.d_adds row.Workload.Chaos.dirty
          row.Workload.Chaos.carried row.Workload.Chaos.fresh
          row.Workload.Chaos.touched row.Workload.Chaos.survivors
          (100.0 *. row.Workload.Chaos.touched_fraction)
          (1000.0 *. row.Workload.Chaos.repair_seconds)
          (1000.0 *. row.Workload.Chaos.scratch_seconds)
          (row.Workload.Chaos.repair_seconds
          /. Float.max 1e-9 row.Workload.Chaos.scratch_seconds)
          (match row.Workload.Chaos.violations with
          | [] -> ""
          | vs -> Format.asprintf " VIOLATIONS: %s" (String.concat "; " vs)))
      r.Workload.Chaos.rows;
    Format.printf "@.";
    match r.Workload.Chaos.failures with
    | [] ->
        Format.printf
          "all %d repairs certified: untouched clusters byte-identical, \
           merged audits accepted@."
          steps
    | fs ->
        Format.printf "%d invariant violation(s)@." (List.length fs);
        exit 1
  in
  let doc =
    "inject seeded fault deltas (crash / churn / edge faults) and heal the \
     decomposition by local re-carving, verifying a repair certificate after \
     every step"
  in
  Cmd.v (Cmd.info "repair" ~doc)
    Term.(
      const run $ algo_pos $ family_pos $ n_arg $ seed_arg $ epsilon_arg
      $ carve_arg $ steps_arg $ crashes_arg $ revive_arg $ dels_arg $ adds_arg
      $ halo_arg $ max_touched_arg)

let diff_cmd =
  let a_pos =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"OLD"
          ~doc:
            "Baseline side: a run-report JSON ($(b,decompose report) \
             artifact) or a trajectory file, optionally with $(b,#N) \
             selecting the 1-based snapshot (negative counts from the end; \
             default the newest).")
  in
  let b_pos =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Candidate side; same specs as $(i,OLD).")
  in
  let force_arg =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:
            "Compare even when the two sides carry different environment \
             fingerprints (cross-machine timings are not comparable; the \
             logical columns still are).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the diff as JSON to FILE ('-' for stdout).")
  in
  let folded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write differential folded stacks ('frames old new', seconds in \
             microseconds) to FILE ('-' for stdout) — the input \
             difffolded.pl expects.")
  in
  let rel_arg =
    Arg.(
      value & opt float Workload.Diff.default_options.Workload.Diff.rel
      & info [ "rel" ] ~docv:"R"
          ~doc:"Relative significance gate (fraction of the baseline).")
  in
  let k_arg =
    Arg.(
      value & opt float Workload.Diff.default_options.Workload.Diff.k
      & info [ "k" ] ~docv:"K"
          ~doc:"MAD multiplier widening the seconds gate.")
  in
  let min_seconds_arg =
    Arg.(
      value
      & opt float Workload.Diff.default_options.Workload.Diff.min_seconds
      & info [ "min-seconds" ] ~docv:"S"
          ~doc:"Absolute floor for a seconds delta to count as significant.")
  in
  let run a_spec b_spec force json folded rel k min_seconds =
    let load spec =
      match Workload.Diff.load spec with
      | Ok side -> side
      | Error e ->
          Format.eprintf "%s@." e;
          exit 2
    in
    let a = load a_spec and b = load b_spec in
    let options = { Workload.Diff.rel; k; min_seconds; force } in
    match Workload.Diff.compare ~options a b with
    | Error e ->
        Format.eprintf "%s@." e;
        exit 3
    | Ok d ->
        print_string (Workload.Diff.to_markdown d);
        let emit what = function
          | None -> ()
          | Some "-" -> print_string (what d)
          | Some path ->
              write_file path (what d);
              Format.printf "wrote %s@." path
        in
        emit Workload.Diff.to_json json;
        emit Workload.Diff.to_folded folded;
        if d.Workload.Diff.significant > 0 then exit 1
  in
  let doc =
    "align the span trees of two runs by phase path and report per-phase \
     deltas (rounds, messages, bits, seconds, minor words) with \
     added/removed/renamed detection; deltas below the noise floor \
     (max of the relative gate and the MAD-widened gate, plus an absolute \
     seconds floor) are not significant. Exits 0 when nothing significant \
     changed, 1 when something did, 3 when the environment fingerprints \
     differ (pass $(b,--force) to compare anyway)."
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(
      const run $ a_pos $ b_pos $ force_arg $ json_arg $ folded_arg $ rel_arg
      $ k_arg $ min_seconds_arg)

let list_cmd =
  let run () =
    Format.printf "families:@.";
    List.iter (fun f -> Format.printf "  %s@." f.Suite.name) Suite.all;
    Format.printf "@.decomposition algorithms (Table 1 rows):@.";
    List.iter
      (fun (d : Algorithms.decomposer) ->
        Format.printf "  %-8s %s@." d.name d.reference)
      Algorithms.decomposers;
    Format.printf "@.carving algorithms (Table 2 rows):@.";
    List.iter
      (fun (c : Algorithms.carver) ->
        Format.printf "  %-8s %s@." c.name c.reference)
      Algorithms.carvers
  in
  let doc = "list available families and algorithms" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let () =
  let doc =
    "strong-diameter network decomposition (Chang & Ghaffari, PODC 2021)"
  in
  let info = Cmd.info "decompose" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            carve_cmd;
            lemma31_cmd;
            sweep_cmd;
            faults_cmd;
            repair_cmd;
            report_cmd;
            conform_cmd;
            diff_cmd;
            list_cmd;
          ]))
