(* Benchmark harness: regenerates the paper's Table 1 and Table 2 (measured
   on the workload suite), plus the auxiliary experiments F.MSG (message
   sizes), F.BARRIER (Section 3 tightness), F.LEMMA31 and F.APPS, and a
   wall-clock timing table (one group per table). Every timing goes
   through Workload.Stats.

   Usage:  dune exec bench/main.exe            (standard sizes, ~minutes)
           dune exec bench/main.exe -- full    (adds the n=16384 sweep)
           dune exec bench/main.exe -- quick   (smoke-test sizes)
           dune exec bench/main.exe -- overhead <layer> [quick]
                                               (one instrumentation layer's
                                                cost: trace, span, conform,
                                                causal or resource)
           dune exec bench/main.exe -- record  (append the rows of
                                                bench_results/e2e/results.json
                                                to BENCH_trajectory.json)
   The full mode list is the [modes] table at the bottom. *)

open Dsgraph
module Suite = Workload.Suite
module Algorithms = Workload.Algorithms
module Measure = Workload.Measure
module Trajectory = Workload.Trajectory
module Resource = Congest.Resource

let fmt = Format.std_formatter

let section title =
  Format.fprintf fmt "@.=== %s ===@.@." title;
  Format.pp_print_flush fmt ()

(* surface the simulator's incomplete-run warnings (Sim.simulate with
   on_incomplete = `Warn logs to the "congest.sim" source) *)
let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning)

type size = Quick | Standard | Full

let table_sizes = function
  | Quick -> [ 256 ]
  | Standard -> [ 256; 1024; 4096 ]
  | Full -> [ 256; 1024; 4096; 16384 ]

(* the ABCP baseline builds G^{2d} (Θ(n²) edges on low-diameter graphs): cap
   its size so the table stays minutes, not hours *)
let abcp_cap = 1024

let seed = 42

(* ------------------------------------------------------------------ *)
(* Table 1: network decomposition                                       *)
(* ------------------------------------------------------------------ *)

let table1 size =
  section
    "Table 1 -- network decomposition in CONGEST (measured colors, cluster \
     diameter, rounds)";
  Format.fprintf fmt
    "Rows marked thm2.3 / thm3.4 are THIS PAPER's algorithms; sDiam = '-' \
     means a@.cluster induces a disconnected subgraph (only legal for weak \
     rows); diameters@.are double-sweep estimates.@.@.";
  let rows = ref [] in
  List.iter
    (fun family ->
      List.iter
        (fun n ->
          List.iter
            (fun (d : Algorithms.decomposer) ->
              if d.name <> "abcp96" || n <= abcp_cap then
                rows := Measure.decomposition_row ~seed d family ~n :: !rows)
            Algorithms.decomposers)
        (table_sizes size))
    Suite.core;
  let rows = List.rev !rows in
  Measure.pp_decomp_table fmt rows;
  Format.pp_print_flush fmt ();
  rows

(* ------------------------------------------------------------------ *)
(* Headline shape: Thm 2.3 vs Thm 3.4 diameters on the path family       *)
(* ------------------------------------------------------------------ *)

let headline size rows =
  section
    "Headline -- diameter improvement of Thm 3.4 over Thm 2.3 (path family)";
  Format.fprintf fmt
    "The paper predicts D = O(log^3 n) for Thm 2.3 vs O(log^2 n) for Thm \
     3.4,@.i.e. the ratio should grow with log n while Thm 3.4 pays more \
     rounds.@.@.";
  Format.fprintf fmt "%8s %12s %12s %8s %14s %14s@." "n" "D(thm2.3)"
    "D(thm3.4)" "ratio" "rounds(2.3)" "rounds(3.4)";
  List.iter
    (fun n ->
      let find name =
        List.find_opt
          (fun (r : Measure.decomp_row) ->
            r.Measure.algorithm = name && r.Measure.family = "path"
            && r.Measure.n = n)
          rows
      in
      match (find "thm2.3", find "thm3.4") with
      | Some a, Some b ->
          (* both algorithms are strong, so a missing diameter would mean a
             validity failure already flagged in the table *)
          let da = Option.value a.Measure.strong_diameter ~default:(-1) in
          let db = Option.value b.Measure.strong_diameter ~default:(-1) in
          Format.fprintf fmt "%8d %12d %12d %8.2f %14d %14d@." n da db
            (float_of_int da /. float_of_int (max 1 db))
            a.Measure.rounds b.Measure.rounds
      | _ -> ())
    (table_sizes size)

(* ------------------------------------------------------------------ *)
(* Table 2: ball carving                                                *)
(* ------------------------------------------------------------------ *)

let table2 size =
  section "Table 2 -- ball carving in CONGEST (n sweep at eps = 1/2)";
  let rows = ref [] in
  List.iter
    (fun family ->
      List.iter
        (fun n ->
          List.iter
            (fun (c : Algorithms.carver) ->
              rows :=
                Measure.carving_row ~seed c family ~n ~epsilon:0.5 :: !rows)
            Algorithms.carvers)
        (table_sizes size))
    [ Suite.path; Suite.grid ];
  let sweep_n = List.rev !rows in
  Measure.pp_carve_table fmt sweep_n;
  section "Table 2 -- ball carving, eps sweep (path, n = 1024)";
  let rows = ref [] in
  List.iter
    (fun epsilon ->
      List.iter
        (fun (c : Algorithms.carver) ->
          rows :=
            Measure.carving_row ~seed c Suite.path ~n:1024 ~epsilon :: !rows)
        Algorithms.carvers)
    [ 0.5; 0.25; 0.125 ];
  let sweep_eps = List.rev !rows in
  Measure.pp_carve_table fmt sweep_eps;
  Format.pp_print_flush fmt ();
  sweep_n @ sweep_eps

(* ------------------------------------------------------------------ *)
(* F.MSG: message sizes — the qualitative gap the paper closes           *)
(* ------------------------------------------------------------------ *)

let messages_experiment size =
  section
    "F.MSG -- maximum message size in bits (ABCP96 transformation vs this \
     paper)";
  Format.fprintf fmt
    "CONGEST bandwidth is 2*ceil(log2 n)+8 bits. The ABCP96 weak->strong@.\
     transformation gathers cluster topologies and blows past it; the \
     paper's@.transformation (thm2.2/thm2.3) stays within it by design.@.@.";
  Format.fprintf fmt "%8s %12s %14s %14s %14s@." "n" "bandwidth" "abcp96"
    "thm2.3" "ggr21(weak)";
  List.iter
    (fun n ->
      let g = Suite.erdos_renyi.Suite.build ~seed ~n in
      let bandwidth = Congest.Bits.bandwidth ~n:(Graph.n g) in
      let run f =
        let cost = Congest.Cost.create () in
        f cost g;
        Congest.Cost.max_message_bits cost
      in
      let abcp = run (fun cost g -> ignore (Baseline.Abcp.decompose ~cost g)) in
      let ours =
        run (fun cost g -> ignore (Strongdecomp.Netdecomp.strong ~cost g))
      in
      let weak =
        run (fun cost g -> ignore (Strongdecomp.Netdecomp.weak ~cost g))
      in
      Format.fprintf fmt "%8d %12d %14d %14d %14d@." n bandwidth abcp ours weak)
    (match size with Quick -> [ 128; 256 ] | _ -> [ 128; 256; 512; 1024 ])

(* ------------------------------------------------------------------ *)
(* F.BARRIER: Section 3 tightness                                       *)
(* ------------------------------------------------------------------ *)

let barrier_experiment size =
  section "F.BARRIER -- Lemma 3.1 on the subdivided expander vs the grid";
  Format.fprintf fmt
    "On the barrier graph either branch must be expensive: a balanced cut \
     needs a@.separator at the eps*n/ln n scale, or the returned component \
     has diameter at@.the ln^2 n/eps scale. On the grid both stay cheap.@.@.";
  Format.fprintf fmt "%-9s %7s %-10s %10s %13s %9s %11s@." "family" "n"
    "outcome" "separator" "sep_scale" "diam(U)" "diam_scale";
  let sizes =
    match size with Quick -> [ 512 ] | _ -> [ 512; 1024; 2048; 4096 ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (fam : Suite.family) ->
          let g = fam.Suite.build ~seed ~n in
          let a = Strongdecomp.Barrier.analyze ~epsilon:0.5 g in
          Format.fprintf fmt "%-9s %7d %-10s %10d %13.1f %9d %11.1f@."
            fam.Suite.name (Graph.n g)
            (match a.Strongdecomp.Barrier.outcome with
            | `Cut -> "cut"
            | `Component -> "component")
            a.Strongdecomp.Barrier.separator_size
            a.Strongdecomp.Barrier.separator_bound
            a.Strongdecomp.Barrier.u_diameter
            a.Strongdecomp.Barrier.diameter_scale)
        [ Suite.subdivided_expander; Suite.grid ])
    sizes

(* ------------------------------------------------------------------ *)
(* F.LEMMA31: outcome census across the suite                           *)
(* ------------------------------------------------------------------ *)

let lemma31_experiment size =
  section "F.LEMMA31 -- Lemma 3.1 outcomes across the workload suite";
  Format.fprintf fmt "%-10s %7s %-10s %10s %9s %10s@." "family" "n" "outcome"
    "separator" "diam(U)" "rounds";
  let n = match size with Quick -> 256 | _ -> 1024 in
  List.iter
    (fun (fam : Suite.family) ->
      let g = fam.Suite.build ~seed ~n in
      if Components.is_connected g then begin
        let cost = Congest.Cost.create () in
        let outcome =
          Strongdecomp.Sparse_cut.(run ~cost ~epsilon:0.5 (scratch ())) g
            ~domain:(Array.init (Graph.n g) Fun.id)
        in
        let kind, sep, diam =
          match outcome with
          | Strongdecomp.Sparse_cut.Cut { removed; _ } ->
              ("cut", Array.length removed, -1)
          | Strongdecomp.Sparse_cut.Component { u; boundary } ->
              ( "component",
                Array.length boundary,
                Bfs.diameter_of_set g (Array.to_list u) )
        in
        Format.fprintf fmt "%-10s %7d %-10s %10d %9d %10d@." fam.Suite.name
          (Graph.n g) kind sep diam (Congest.Cost.rounds cost)
      end)
    Suite.all

(* ------------------------------------------------------------------ *)
(* F.APPS: the C·D use template                                          *)
(* ------------------------------------------------------------------ *)

let apps_experiment size =
  section
    "F.APPS -- MIS and (D+1)-coloring on top of Thm 2.3 decompositions, vs \
     Luby's randomized MIS (simulated)";
  Format.fprintf fmt "%-10s %7s %7s %7s %10s %10s %10s %8s@." "family" "n" "C"
    "D" "mis_rnds" "col_rnds" "luby_rnds" "valid";
  let n = match size with Quick -> 256 | _ -> 1024 in
  List.iter
    (fun (fam : Suite.family) ->
      let g = fam.Suite.build ~seed ~n in
      let decomp = Strongdecomp.Netdecomp.strong g in
      let clustering = Cluster.Decomposition.clustering decomp in
      let colors = Cluster.Decomposition.num_colors decomp in
      let diam = Cluster.Clustering.max_strong_diameter_estimate clustering in
      let mis_cost = Congest.Cost.create () in
      let mis = Apps.Mis.of_decomposition ~cost:mis_cost g decomp in
      let col_cost = Congest.Cost.create () in
      let coloring = Apps.Coloring.of_decomposition ~cost:col_cost g decomp in
      let luby_mis, luby_stats = Apps.Luby.run g in
      let valid =
        (match Apps.Mis.check g mis with Ok () -> true | Error _ -> false)
        && (match Apps.Coloring.check g coloring with
           | Ok () -> true
           | Error _ -> false)
        && match Apps.Mis.check g luby_mis with Ok () -> true | Error _ -> false
      in
      Format.fprintf fmt "%-10s %7d %7d %7d %10d %10d %10d %8s@." fam.Suite.name
        (Graph.n g) colors diam
        (Congest.Cost.rounds mis_cost)
        (Congest.Cost.rounds col_cost)
        luby_stats.Congest.Sim.rounds_used
        (if valid then "ok" else "FAIL"))
    (Suite.core @ [ Suite.scale_free ])

(* ------------------------------------------------------------------ *)
(* F.SIM: the genuinely distributed execution vs the cost model          *)
(* ------------------------------------------------------------------ *)

let sim_experiment size =
  section
    "F.SIM -- weak carving executed round-by-round on the synchronous \
     simulator";
  Format.fprintf fmt
    "The same bit-phase algorithm as the step-granular engine, but as a \
     real node@.program: proposals on edges, per-cluster convergecasts \
     over Steiner trees, one@.message per edge per round. 'match' asserts \
     the clustering equals the engine's@.exactly; sim_rounds is the \
     measured synchronous round count, model_rounds the@.cost-model charge \
     for the same instance.@.@.";
  Format.fprintf fmt "%-8s %5s %-6s %6s %10s %12s %8s %8s@." "family" "n"
    "preset" "match" "sim_rounds" "model_rounds" "maxbits" "bandw";
  let graphs =
    match size with
    | Quick -> [ ("grid", Gen.grid 5 5); ("er", Suite.erdos_renyi.Suite.build ~seed ~n:24) ]
    | _ ->
        [
          ("path", Gen.path 48);
          ("grid", Gen.grid 7 7);
          ("er", Suite.erdos_renyi.Suite.build ~seed ~n:48);
          ("cliques", Gen.ring_of_cliques 4 6);
        ]
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (pname, preset) ->
          let r = Weakdiam.Distributed.carve ~preset g ~epsilon:0.5 in
          let model = Congest.Cost.create () in
          ignore (Weakdiam.Weak_carving.carve ~preset ~cost:model g ~epsilon:0.5);
          Format.fprintf fmt "%-8s %5d %-6s %6b %10d %12d %8d %8d@." name
            (Graph.n g) pname
            (Weakdiam.Distributed.matches_engine r)
            r.Weakdiam.Distributed.sim_stats.Congest.Sim.rounds_used
            (Congest.Cost.rounds model)
            r.Weakdiam.Distributed.sim_stats.Congest.Sim.max_bits_seen
            (Congest.Bits.bandwidth ~n:(Graph.n g)))
        [ ("rg20", Weakdiam.Weak_carving.Rg20); ("ggr21", Weakdiam.Weak_carving.Ggr21) ])
    graphs;
  Format.fprintf fmt
    "@.Theorem 2.1 itself as composed distributed stages (weak carving + \
     BFS ball@.growing as node programs); 'match' compares against the \
     centralized Thm 2.1,@.charged_rounds is its Cost meter on the same \
     graph:@.@.";
  Format.fprintf fmt "%-8s %5s %6s %6s %10s %14s %8s %8s@." "family" "n"
    "match" "iters" "sim_rounds" "charged_rounds" "ratio" "maxbits";
  let ok = ref true in
  List.iter
    (fun (name, g) ->
      let module TD = Strongdecomp.Transform_distributed in
      let _, stats = TD.strong_carve g ~epsilon:0.5 in
      let m = TD.matches_centralized g ~epsilon:0.5 in
      ok := !ok && m;
      let cost = Congest.Cost.create () in
      ignore
        (Cluster.Carving.of_carver ~cost
           (Strongdecomp.Strong_carving.carve ())
           g ~epsilon:0.5);
      let charged = Congest.Cost.rounds cost in
      Format.fprintf fmt "%-8s %5d %6b %6d %10d %14d %8.2f %8d@." name
        (Graph.n g) m stats.TD.iterations stats.TD.rounds charged
        (float_of_int stats.TD.rounds /. float_of_int (max 1 charged))
        stats.TD.max_bits)
    (match size with
    | Quick -> [ ("grid", Gen.grid 5 5) ]
    | _ ->
        [
          ("path", Gen.path 40);
          ("grid", Gen.grid 6 6);
          ("grid", Gen.grid 32 32);
          ("er", Suite.erdos_renyi.Suite.build ~seed ~n:40);
        ]);
  !ok

(* ------------------------------------------------------------------ *)
(* Shape check: measured / theory-formula ratios across the n sweep      *)
(* ------------------------------------------------------------------ *)

let shape_check size rows2 =
  section
    "Shape check -- measured rounds and diameter divided by the paper's \
     formula (path family, eps = 1/2)";
  Format.fprintf fmt
    "Each cell is measured / formula with the formula from Table 2 \
     (log^k n / eps^j).@.The formulas are worst-case upper bounds, so a \
     shape-correct implementation@.shows a bounded, flat-or-decreasing \
     ratio; a ratio growing with n would flag@.an order violation. None \
     grows.@.@.";
  Format.fprintf fmt "%-10s" "algo";
  List.iter (fun n -> Format.fprintf fmt "  D/thy@%-6d" n) (table_sizes size);
  List.iter (fun n -> Format.fprintf fmt "  R/thy@%-6d" n) (table_sizes size);
  Format.fprintf fmt "@.";
  List.iter
    (fun (trow : Workload.Theory.row) ->
      let cells which =
        List.map
          (fun n ->
            match
              List.find_opt
                (fun (r : Measure.carve_row) ->
                  r.Measure.algorithm = trow.Workload.Theory.t_name
                  && r.Measure.family = "path"
                  && r.Measure.n = n
                  && r.Measure.epsilon = 0.5)
                rows2
            with
            | None -> None
            | Some r ->
                let measured =
                  match which with
                  | `Diameter -> (
                      match r.Measure.strong_diameter with
                      | Some d -> d
                      | None -> r.Measure.weak_diameter)
                  | `Rounds -> r.Measure.rounds
                in
                Some
                  (Workload.Theory.ratio trow which ~n ~epsilon:0.5 ~measured))
          (table_sizes size)
      in
      let ds = cells `Diameter and rs = cells `Rounds in
      if List.exists Option.is_some ds then begin
        Format.fprintf fmt "%-10s" trow.Workload.Theory.t_name;
        List.iter
          (fun c ->
            match c with
            | None -> Format.fprintf fmt "  %12s" "-"
            | Some v -> Format.fprintf fmt "  %12.3f" v)
          (ds @ rs);
        Format.fprintf fmt "@."
      end)
    Workload.Theory.carving_rows

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                     *)
(* ------------------------------------------------------------------ *)

let ablation_presets size =
  section
    "ABLATION A1 -- weak-engine preset inside Theorem 2.2 (RG20 guarantees \
     vs GGR21 parameters)";
  Format.fprintf fmt
    "Theorem 2.2 = Theorem 2.1 over the weak engine. The RG20 preset \
     carries the@.worst-case dead-fraction proof but deeper Steiner trees \
     (R = O(log^3/eps));@.the GGR21 preset has R = O(log^2/eps) because it \
     stops clusters more@.aggressively (note its higher dead fraction); the \
     Hybrid preset grows on@.either criterion — minimum deaths, RG20-scale \
     depth. The strong diameter@.inherits 2R + O(log n/eps).@.@.";
  Format.fprintf fmt "%-9s %7s %-8s %7s %7s %7s %12s@." "family" "n" "preset"
    "sDiam" "dead%" "steps" "rounds";
  let sizes = match size with Quick -> [ 1024 ] | _ -> [ 1024; 4096 ] in
  List.iter
    (fun n ->
      List.iter
        (fun (label, preset) ->
          let g = Suite.path.Suite.build ~seed ~n in
          let cost = Congest.Cost.create () in
          let carving =
            Cluster.Carving.of_carver ~cost
              (Strongdecomp.Strong_carving.carve ~preset ())
              g ~epsilon:0.5
          in
          let clustering = carving.Cluster.Carving.clustering in
          Format.fprintf fmt "%-9s %7d %-8s %7d %7.1f %7s %12d@." "path" n
            label
            (Cluster.Clustering.max_strong_diameter_estimate clustering)
            (100.0 *. Cluster.Carving.dead_fraction carving)
            "-" (Congest.Cost.rounds cost))
        [
          ("rg20", Weakdiam.Weak_carving.Rg20);
          ("hybrid", Weakdiam.Weak_carving.Hybrid);
          ("ggr21", Weakdiam.Weak_carving.Ggr21);
        ])
    sizes

let ablation_epsilon_split size =
  section
    "ABLATION A2 -- Theorem 2.1's eps' = eps/(2 log n) split, probed by \
     feeding the weak engine directly at eps vs eps/(2 log n)";
  Format.fprintf fmt
    "The transformation must shrink the weak engine's boundary budget by \
     2 log n to@.survive log n halving iterations; the price is the deeper \
     trees below.@.@.";
  Format.fprintf fmt "%-9s %7s %14s %10s %10s@." "family" "n" "eps'" "depth R"
    "dead%";
  let n = match size with Quick -> 512 | _ -> 4096 in
  let g = Suite.path.Suite.build ~seed ~n in
  let log2n =
    int_of_float (Float.ceil (log (float_of_int n) /. log 2.0))
  in
  List.iter
    (fun (label, eps) ->
      let r = Weakdiam.Weak_carving.carve g ~epsilon:eps in
      Format.fprintf fmt "%-9s %7d %14s %10d %10.2f@." "path" n label
        r.Weakdiam.Weak_carving.max_depth
        (100.0 *. Cluster.Carving.dead_fraction r.Weakdiam.Weak_carving.carving))
    [
      ("1/2", 0.5);
      ( Printf.sprintf "1/(4 log n)=%.4f" (0.5 /. float_of_int (2 * log2n)),
        0.5 /. float_of_int (2 * log2n) );
    ]

let ablation_colors_vs_eps size =
  section
    "ABLATION A4 -- colors vs per-repetition boundary parameter in the \
     LS93 reduction";
  Format.fprintf fmt
    "The decomposition repeats the carving on what remains. In theory C ~ \
     log_{1/eps} n;@.at laptop scale the measured dead fractions are far \
     below eps, so colors barely@.move and the visible trade is the \
     1/eps factor in per-cluster diameter and rounds.@.@.";
  Format.fprintf fmt "%8s %8s %8s %8s@." "eps" "colors" "sDiam" "rounds";
  let n = match size with Quick -> 256 | _ -> 1024 in
  let g = Suite.path.Suite.build ~seed ~n in
  List.iter
    (fun epsilon ->
      let cost = Congest.Cost.create () in
      let d =
        Strongdecomp.Netdecomp.of_carver ~cost ~epsilon
          (Strongdecomp.Strong_carving.carve ())
          g
      in
      let clustering = Cluster.Decomposition.clustering d in
      Format.fprintf fmt "%8.3f %8d %8d %8d@." epsilon
        (Cluster.Decomposition.num_colors d)
        (Cluster.Clustering.max_strong_diameter_estimate clustering)
        (Congest.Cost.rounds cost))
    [ 0.75; 0.5; 0.25 ]

let ablation_apps_extra size =
  section
    "ABLATION A3 -- further decomposition consumers: spanner and expander \
     decomposition";
  let n = match size with Quick -> 256 | _ -> 1024 in
  Format.fprintf fmt "%-10s %7s %9s %9s %12s %10s@." "family" "n"
    "spn_edges" "stretch" "xdecomp_k" "cut_frac";
  List.iter
    (fun (fam : Suite.family) ->
      let g = fam.Suite.build ~seed ~n in
      let spanner, _ = Apps.Spanner.run g in
      let xd = Apps.Expander_decomp.decompose g in
      Format.fprintf fmt "%-10s %7d %9d %9.0f %12d %10.3f@." fam.Suite.name
        (Graph.n g)
        (List.length spanner.Apps.Spanner.edges)
        (Apps.Spanner.measured_stretch g spanner)
        (Cluster.Clustering.num_clusters xd.Apps.Expander_decomp.clustering)
        (Apps.Expander_decomp.inter_cluster_fraction g xd))
    [ Suite.grid; Suite.erdos_renyi; Suite.ring_of_cliques ]

(* ------------------------------------------------------------------ *)
(* F.FAULT: graceful degradation under fault injection                   *)
(* ------------------------------------------------------------------ *)

let faults_experiment () =
  section
    "F.FAULT -- distributed carvings through the reliable transport under \
     drop/crash adversaries";
  Format.fprintf fmt
    "Each row is one seeded, replayable fault schedule. 'ok' means the \
     output passes@.the lib/cluster validity checkers on the surviving \
     subgraph; '(recovered)' means@.the first run was corrupted by crashes \
     and the harness re-ran on the survivor@.subgraph (recovery rounds \
     reported). Overhead is outer rounds vs the fault-free@.unwrapped \
     baseline.@.@.";
  let sweeps =
    [
      (Workload.Faults.Ls, "path", 128, 0.5);
      (Workload.Faults.Ls, "er", 128, 0.5);
      (Workload.Faults.Ls, "reg4", 256, 0.5);
      (Workload.Faults.Weakdiam, "grid", 49, 0.5);
      (Workload.Faults.Weakdiam, "er", 48, 0.5);
      (Workload.Faults.Weakdiam, "path", 64, 0.5);
    ]
  in
  let rows =
    List.concat_map
      (fun (algorithm, family, n, epsilon) ->
        let rows =
          Workload.Faults.sweep ~seed:1 algorithm ~family ~n ~epsilon
        in
        List.iter
          (fun r -> Format.fprintf fmt "%a@." Workload.Faults.pp_row r)
          rows;
        rows)
      sweeps
  in
  Format.pp_print_flush fmt ();
  rows

(* ------------------------------------------------------------------ *)
(* Wall-clock timing: one group per table/figure                         *)
(* ------------------------------------------------------------------ *)

let timing_suite size =
  section "Wall-clock timing (Workload.Stats: median +- MAD of 5 runs)";
  let n = match size with Quick -> 256 | _ -> 1024 in
  let path = Suite.path.Suite.build ~seed ~n in
  let grid = Suite.grid.Suite.build ~seed ~n in
  let er = Suite.erdos_renyi.Suite.build ~seed ~n in
  let run f () = ignore (Sys.opaque_identity (f ())) in
  let tests =
    [
      ("table1 thm2.3/path", run (fun () -> Strongdecomp.Netdecomp.strong path));
      ( "table1 thm3.4/path",
        run (fun () -> Strongdecomp.Netdecomp.strong_improved path) );
      ( "table1 ls93/path",
        run (fun () -> Baseline.Linial_saks.decompose (Rng.create 1) path) );
      ("table1 mpx/path", run (fun () -> Baseline.Mpx.decompose (Rng.create 1) path));
      ( "table2 thm2.2/grid",
        run (fun () ->
            Cluster.Carving.of_carver
              (Strongdecomp.Strong_carving.carve ())
              grid ~epsilon:0.5) );
      ( "table2 thm3.3/grid",
        run (fun () ->
            Strongdecomp.Strong_carving.carve_improved () grid
              ~domain:(Array.init (Graph.n grid) Fun.id)
              ~epsilon:0.5) );
      ( "table2 ggr21/grid",
        run (fun () -> Weakdiam.Weak_carving.carve grid ~epsilon:0.5) );
      ( "table2 rg20/grid",
        run (fun () ->
            Weakdiam.Weak_carving.carve ~preset:Weakdiam.Weak_carving.Rg20 grid
              ~epsilon:0.5) );
      ( "figures lemma3.1/grid",
        run (fun () ->
            Strongdecomp.Sparse_cut.(run ~epsilon:0.5 (scratch ())) grid
              ~domain:(Array.init (Graph.n grid) Fun.id)) );
      ("figures mis/er", run (fun () -> Apps.Mis.run er));
      ( "figures edge_carving/grid",
        run (fun () -> Strongdecomp.Edge_carving.carve grid ~epsilon:0.25) );
    ]
  in
  let pretty s =
    if s >= 1.0 then Printf.sprintf "%.2f s" s
    else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
    else Printf.sprintf "%.0f us" (s *. 1e6)
  in
  Format.fprintf fmt "%-26s %14s %12s@." "benchmark" "time/run" "mad";
  List.iter
    (fun (name, f) ->
      let (), t = Workload.Stats.measure f in
      Format.fprintf fmt "%-26s %14s %12s@." name
        (pretty t.Workload.Stats.median)
        (pretty t.Workload.Stats.mad))
    tests

(* ------------------------------------------------------------------ *)
(* Instrumentation overhead: one table, one driver                       *)
(* ------------------------------------------------------------------ *)

(* Every observability layer (event trace, phase spans, conformance
   verifier, causal analyzer, resource recorder) is budgeted by the same
   experiment: the workload with the layer off, on, then off again as
   the noise floor (Workload.Stats.overhead). A row's [run ~on] is one
   iteration; [iters] of them form a timed batch, so sub-millisecond
   message pumps rise above timer noise. *)
type overhead_row = {
  layer : string;
  workload : string;
  iters : int;
  run : on:bool -> unit;
}

(* A workload is (name, graph, iterations per batch, one execution with
   the optional instruments attached). *)
let overhead_table () =
  let er = Suite.erdos_renyi.Suite.build ~seed ~n:96 in
  let grid = Gen.grid 8 8 and grid256 = Gen.grid 16 16 in
  let leader =
    ( "leader_election/er96",
      er,
      200,
      fun ~conformance trace ->
        ignore (Congest.Programs.leader_election ?conformance ?trace er) )
  and bfs =
    ( "bfs/er96",
      er,
      200,
      fun ~conformance trace ->
        ignore (Congest.Programs.bfs ?conformance ?trace er ~source:0) )
  and sim =
    ( "weak_carve_sim/grid64",
      grid,
      2,
      fun ~conformance trace ->
        ignore
          (Weakdiam.Distributed.carve ?conformance ?trace grid ~epsilon:0.5) )
  in
  (* the strong engine runs no node program, so it takes no verifier *)
  let strong name g =
    ( name,
      g,
      2,
      fun ~conformance:_ trace ->
        let cost = Congest.Cost.create ?trace () in
        ignore (Strongdecomp.Netdecomp.strong ~cost g) )
  in
  let row layer ?(suffix = "") (name, _, iters, _) run =
    { layer; workload = name ^ suffix; iters; run }
  in
  let exec (_, _, _, exec) trace = exec ~conformance:None trace in
  (* off: no sink; on: a sink, cleared per iteration *)
  let trace w =
    let sink = Congest.Trace.sink () in
    row "trace" w (fun ~on ->
        if on then begin
          Congest.Trace.clear sink;
          exec w (Some sink)
        end
        else exec w None)
  in
  (* off: a tracing-only sink; on: the default sink, spans recorded *)
  let span w =
    let plain = Congest.Trace.sink ~spans:false ()
    and spanned = Congest.Trace.sink () in
    row "span" w (fun ~on ->
        let sink = if on then spanned else plain in
        Congest.Trace.clear sink;
        exec w (Some sink))
  in
  (* off: a traced run; on: the program also wrapped by the verifier,
     which under [order_invariant] re-runs every multi-message round on
     the reversed inbox (rows marked OI) *)
  let conform ~order_invariant ((_, g, _, exec) as w) =
    let sink = Congest.Trace.sink () and rec_ = Congest.Conformance.recorder () in
    let inst = Congest.Conformance.instrumentor ~order_invariant rec_ g in
    row "conform" w
      ~suffix:(if order_invariant then " OI" else "")
      (fun ~on ->
        Congest.Trace.clear sink;
        Congest.Conformance.clear rec_;
        exec ~conformance:(if on then Some inst else None) (Some sink))
  in
  (* off: a traced run; on: the same run, then the critical-path replay
     of its stream and the per-span table with its critical/slack split,
     as reports build it *)
  let causal w =
    let sink = Congest.Trace.sink () in
    row "causal" w (fun ~on ->
        Congest.Trace.clear sink;
        exec w (Some sink);
        if on then
          ignore
            (Congest.Span.rollups ~causal:(Congest.Causal.analyze sink) sink))
  in
  (* off: spans only; on: a fresh recorder sampling the clock and GC at
     every span transition. Trace.clear detaches the previous one. *)
  let resource w =
    let sink = Congest.Trace.sink () in
    row "resource" w (fun ~on ->
        Congest.Trace.clear sink;
        if on then Resource.attach (Resource.create ()) sink;
        exec w (Some sink))
  in
  [
    trace leader;
    trace bfs;
    trace sim;
    span sim;
    span (strong "thm2.3/grid64" grid);
    conform ~order_invariant:true leader;
    conform ~order_invariant:false bfs;
    conform ~order_invariant:false sim;
    causal sim;
    causal (strong "thm2.3/grid256" grid256);
    resource sim;
    (* the strong engine is span-dense but fast: grid256 makes the batch
       long enough for the median to mean something *)
    resource (strong "thm2.3/grid256" grid256);
  ]

let overhead_layers = [ "trace"; "span"; "conform"; "causal"; "resource" ]

let results_dir = "bench_results"

(* writes bench_results/<name>; false (after saying so) when it cannot *)
let write_result name contents =
  try
    if not (Sys.file_exists results_dir) then Unix.mkdir results_dir 0o755;
    let oc = open_out (Filename.concat results_dir name) in
    output_string oc contents;
    close_out oc;
    true
  with Sys_error e ->
    Format.fprintf fmt "@.(skipping CSV dump: %s)@." e;
    false

let run_overhead layer ~quick =
  section
    (Printf.sprintf
       "%s overhead -- wall clock with the layer off, on, and off again" layer);
  Format.fprintf fmt
    "overhead%% = (on - off) / off on medians; floor%% = (off2 - off) / off \
     is the@.noise the overhead has to be read against.@.@.";
  let plan =
    { Workload.Stats.default_plan with samples = (if quick then 5 else 15) }
  in
  Format.fprintf fmt "%-24s %5s %10s %10s %10s %10s %10s@." "workload" "reps"
    "off(s)" "on(s)" "off2(s)" "overhead%" "floor%";
  let csv = Buffer.create 512 in
  Buffer.add_string csv
    "workload,layer,reps,base_seconds,layer_seconds,base2_seconds,base_mad,layer_mad,overhead_pct,floor_pct\n";
  List.iter
    (fun r ->
      if r.layer = layer then begin
        let batch on () =
          for _ = 1 to r.iters do
            r.run ~on
          done
        in
        let o =
          Workload.Stats.overhead ~plan ~base:(batch false) ~layer:(batch true)
            ()
        in
        let open Workload.Stats in
        Format.fprintf fmt "%-24s %5d %10.4f %10.4f %10.4f %10.2f %10.2f@."
          r.workload plan.samples o.base.median o.layer.median o.base2.median
          o.overhead_pct o.floor_pct;
        Buffer.add_string csv
          (Printf.sprintf "%s,%s,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.3f,%.3f\n"
             r.workload layer plan.samples o.base.median o.layer.median
             o.base2.median o.base.mad o.layer.mad o.overhead_pct o.floor_pct)
      end)
    (overhead_table ());
  let file = layer ^ "_overhead.csv" in
  if write_result file (Buffer.contents csv) then
    Format.fprintf fmt "@.CSV dump written to %s/%s@." results_dir file

(* ------------------------------------------------------------------ *)
(* B.CHAOS: seeded chaos sweep + repair-cost headline                    *)
(* ------------------------------------------------------------------ *)

module Chaos = Workload.Chaos
module Repair = Workload.Repair
module Audit = Workload.Audit

(* The R.REPAIR acceptance row: greedy on grid256, crash node 128 with
   halo 1, verify the repair certificate, then time a from-scratch
   re-run of the same engine on the survivor subgraph (including
   certification) as the cost denominator. Returns the repair report,
   the edge count of the region handed to the re-carver, and the
   scratch seconds. *)
let repair_trial ~trial =
  let fam = Suite.find "grid" in
  let g = fam.Suite.build ~seed ~n:256 in
  let dec = Algorithms.find_decomposer "greedy" in
  let d = dec.Algorithms.run ~cost:(Congest.Cost.create ()) ~seed g in
  let session = Repair.start_decomposition d in
  let region_edges = ref 0 in
  let recarve sub =
    region_edges := Graph.m sub;
    Repair.recarve_decomposer dec ~seed:(seed + trial) sub
  in
  let delta = Cluster.Repair.delta ~crash:[ 128 ] () in
  let s', rep = Repair.repair ~halo:1 ~recarve session delta in
  let post = Cluster.Repair.graph s'.Repair.state in
  (match Repair.verify_cert ~prev:session ~post rep.Repair.cert with
  | Ok () -> ()
  | Error e -> failwith ("repair headline certificate rejected: " ^ e));
  let t0 = Resource.now () in
  let survivors = Mask.to_list (Cluster.Repair.survivors s'.Repair.state) in
  let sub, _back = Subgraph.induce post survivors in
  let labels, lcolors =
    Repair.recarve_decomposer dec ~seed:(seed + trial) sub
  in
  let cl = Cluster.Clustering.make sub ~cluster_of:labels in
  let k = Cluster.Clustering.num_clusters cl in
  let color_of_cluster =
    Array.init k (fun c ->
        match Cluster.Clustering.members cl c with
        | [] -> 0
        | v :: _ -> max 0 lcolors.(labels.(v)))
  in
  let audit =
    Audit.certify_decomposition
      (Cluster.Decomposition.make cl ~color_of_cluster)
  in
  (match Audit.verify sub audit with
  | Ok () -> ()
  | Error e -> failwith ("repair headline scratch audit rejected: " ^ e));
  let scratch_seconds = Resource.now () -. t0 in
  (rep, !region_edges, scratch_seconds)

let run_chaos ~quick =
  let count = if quick then 25 else 200 in
  section
    (Printf.sprintf
       "B.CHAOS -- %d seeded fault schedules through detect -> repair -> \
        re-audit"
       count);
  let specs = Chaos.default_specs ~count ~seed () in
  let results = Chaos.sweep specs in
  let rows = List.concat_map (fun r -> r.Chaos.rows) results in
  let failures =
    List.concat
      (List.map2
         (fun sp r ->
           List.map
             (fun (step, msg) ->
               Printf.sprintf "%s/%s%d seed=%d step %d: %s"
                 (Chaos.algo_label sp.Chaos.algo)
                 sp.Chaos.family sp.Chaos.n sp.Chaos.seed step msg)
             r.Chaos.failures)
         specs results)
  in
  (* per-algorithm roll-up *)
  let labels =
    List.sort_uniq compare
      (List.map (fun sp -> Chaos.algo_label sp.Chaos.algo) specs)
  in
  Format.fprintf fmt "%-14s %9s %6s %10s %10s %10s@." "algorithm"
    "schedules" "steps" "mean_touch" "max_touch" "cost_ratio";
  List.iter
    (fun label ->
      let mine =
        List.filter
          (fun row -> Chaos.algo_label row.Chaos.r_spec.Chaos.algo = label)
          rows
      in
      let steps = List.length mine in
      let schedules =
        List.length
          (List.filter
             (fun sp -> Chaos.algo_label sp.Chaos.algo = label)
             specs)
      in
      let touch = List.map (fun r -> r.Chaos.touched_fraction) mine in
      let mean xs =
        if xs = [] then 0.0
        else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
      in
      let ratio =
        mean
          (List.map
             (fun r ->
               r.Chaos.repair_seconds /. Float.max 1e-9 r.Chaos.scratch_seconds)
             mine)
      in
      Format.fprintf fmt "%-14s %9d %6d %10.3f %10.3f %10.3f@." label
        schedules steps (mean touch)
        (List.fold_left Float.max 0.0 touch)
        ratio)
    labels;
  Format.fprintf fmt "@.%d schedules, %d repair steps, %d invariant \
                      violations@."
    (List.length specs) (List.length rows) (List.length failures);
  List.iter (fun msg -> Format.fprintf fmt "  VIOLATION %s@." msg) failures;
  (* grid256 single-crash headline, median of three trials *)
  section
    "B.REPAIR -- grid256/greedy single-crash headline (median of 3 trials)";
  let trials = List.map (fun t -> (t, repair_trial ~trial:t)) [ 1; 2; 3 ] in
  let med f =
    (Workload.Stats.summarize (List.map (fun (_, t) -> f t) trials))
      .Workload.Stats.median
  in
  let med_repair = med (fun (rep, _, _) -> rep.Repair.seconds) in
  let med_scratch = med (fun (_, _, s) -> s) in
  let med_touched = med (fun (rep, _, _) -> rep.Repair.touched_fraction) in
  let ratio = med_repair /. Float.max 1e-9 med_scratch in
  Format.fprintf fmt
    "touched fraction %.4f (bound 0.25), repair %.2f ms vs scratch %.2f ms \
     (ratio %.3f, bound 0.50)@."
    med_touched (1000.0 *. med_repair) (1000.0 *. med_scratch) ratio;
  let headline_ok = med_touched <= 0.25 && ratio <= 0.50 in
  Format.fprintf fmt "headline: %s@."
    (if headline_ok then "PASS" else "FAIL");
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "workload,trial,dirty,carried,fresh,touched,touched_fraction,region_edges,repair_seconds,scratch_seconds,cost_ratio\n";
  List.iter
    (fun (t, (rep, edges, scratch_s)) ->
      Buffer.add_string buf
        (Printf.sprintf
           "repair/greedy_grid256,%d,%d,%d,%d,%d,%.4f,%d,%.6f,%.6f,%.3f\n" t
           rep.Repair.dirty_clusters rep.Repair.carried_clusters
           rep.Repair.fresh_clusters rep.Repair.touched_nodes
           rep.Repair.touched_fraction edges rep.Repair.seconds scratch_s
           (rep.Repair.seconds /. Float.max 1e-9 scratch_s)))
    trials;
  Buffer.add_string buf
    (Printf.sprintf "repair/greedy_grid256,median,,,,,%.4f,,%.6f,%.6f,%.3f\n"
       med_touched med_repair med_scratch ratio);
  if
    write_result "chaos.csv" (Chaos.csv rows)
    && write_result "repair_cost.csv" (Buffer.contents buf)
  then
    Format.fprintf fmt
      "@.CSV dumps written to %s/chaos.csv and %s/repair_cost.csv@."
      results_dir results_dir;
  failures = [] && headline_ok

(* ------------------------------------------------------------------ *)
(* B.RECORD: persistent headline-metrics time series                     *)
(* ------------------------------------------------------------------ *)

let trajectory_path = "BENCH_trajectory.json"

(* malformed trajectory lines are skipped with a warning, never
   silently dropped — and never fatal, so one corrupt line cannot
   wedge the recorder *)
let read_trajectory () =
  Trajectory.read_snapshot_lines
    ~warn:(fun ~line_number line ->
      Format.fprintf fmt "warning: %s line %d: malformed snapshot line \
                          skipped (%s)@."
        trajectory_path line_number
        (if String.length line > 40 then String.sub line 0 40 ^ "..." else line))
    trajectory_path

(* appends [entries] to BENCH_trajectory.json as one snapshot and
   prints the regression lines of each row against its latest earlier
   same-environment row; CI greps the "regression:" prefix and surfaces
   the lines as non-blocking warnings *)
let append_snapshot ~kind ~fingerprint entries =
  let line =
    Trajectory.snapshot_json ~fingerprint ~time:(Unix.time ()) entries
  in
  let prev = read_trajectory () in
  Trajectory.write trajectory_path (prev @ [ line ]);
  Format.fprintf fmt "appended %s %d to %s@." kind
    (List.length prev + 1)
    trajectory_path;
  let d = Workload.Diff.against_history prev line in
  let compared =
    List.length
      (List.filter (fun r -> r.Workload.Diff.r_status = Workload.Diff.Matched)
         d.Workload.Diff.rows)
  in
  match Workload.Diff.regressions d with
  | _ when compared = 0 ->
      Format.fprintf fmt
        "none of these rows has an earlier value under this environment \
         (%a) -- nothing to compare against@."
        Workload.Stats.pp_fingerprint fingerprint
  | [] ->
      Format.fprintf fmt
        "no significant regressions in %d of %d rows vs their latest \
         same-environment snapshots@."
        compared (List.length entries)
  | regs ->
      List.iter
        (fun r -> Format.fprintf fmt "%s@." (Workload.Diff.regression_line r))
        regs

let fingerprint = lazy (Workload.Stats.current_fingerprint ())

(* the rows come from the e2e harness's last all-workload run: record
   times nothing itself *)
let e2e_results = Filename.concat results_dir "e2e/results.json"

let run_record () =
  section
    ("B.RECORD -- the rows of " ^ e2e_results
   ^ " appended to BENCH_trajectory.json");
  let parsed =
    if not (Sys.file_exists e2e_results) then
      Error "no such file; run `dune exec bench/e2e/e2e.exe -- run` first"
    else
      Result.bind
        (Json.parse (In_channel.with_open_bin e2e_results In_channel.input_all))
        Trajectory.of_e2e
  in
  match parsed with
  | Error e ->
      Format.fprintf fmt "%s: %s -- nothing appended@." e2e_results e;
      false
  | Ok (fingerprint, entries) ->
      List.iter
        (fun e ->
          Format.fprintf fmt "%-40s %s@." e.Trajectory.name
            (String.concat " "
               (List.map
                  (fun (k, v) -> k ^ "=" ^ Json.to_string v)
                  e.Trajectory.columns)))
        entries;
      Format.fprintf fmt "@.environment: %a@." Workload.Stats.pp_fingerprint
        fingerprint;
      append_snapshot ~kind:"snapshot" ~fingerprint entries;
      true

(* ------------------------------------------------------------------ *)
(* B.DASHBOARD: the trajectory rendered as a self-contained HTML page   *)
(* ------------------------------------------------------------------ *)

let dashboard_path = "BENCH_dashboard.html"

let run_dashboard () =
  section "B.DASHBOARD -- trajectory sparkline dashboard";
  let lines = read_trajectory () in
  Workload.Dashboard.write ~path:dashboard_path lines;
  Format.fprintf fmt "%d snapshots rendered to %s@." (List.length lines)
    dashboard_path;
  true

(* ------------------------------------------------------------------ *)
(* B.SCALE: million-node CSR substrate end-to-end                       *)
(* ------------------------------------------------------------------ *)

(* n = 2^20 nodes, 2*10^7 edge samples: the scale SNIPPETS.md's LDD
   benchmarks run at, and ~3 orders of magnitude past the grid suite *)
let scale_n = 1 lsl 20
let scale_samples = 20_000_000

let run_scale () =
  section
    (Printf.sprintf
       "B.SCALE -- RMAT n=%d, %d edge samples: generate -> save -> \
        mmap-load -> decompose -> audit"
       scale_n scale_samples);
  if not (Sys.file_exists results_dir) then Unix.mkdir results_dir 0o755;
  let csr_path = Filename.concat results_dir "rmat1M.csr" in
  let spill_path = Filename.concat results_dir "rmat1M.trace" in
  (* the ~90 s pipeline used to run completely dark: a process-lifetime
     recorder now pulses phase/elapsed/peak-heap to stderr per stage *)
  let res = Resource.create () in
  let timed name f =
    Resource.heartbeat res name;
    let s0 = Resource.now () in
    let x = f () in
    let dt = Resource.now () -. s0 in
    Format.fprintf fmt "%-12s %8.2f s@." name dt;
    (x, dt)
  in
  let rng = Rng.create seed in
  (* a recorder windowed to generation alone, as [dec_res] is to the
     decomposition below, for the generate row *)
  let gen_res = Resource.create () in
  let g, gen_s =
    timed "generate" (fun () -> Gen.rmat rng ~n:scale_n ~m:scale_samples)
  in
  let gen_tot = Resource.totals gen_res in
  (* the exact CSR bytes, so a run shows the graph is the pinned one *)
  let csr_checksum =
    Io.checksum_csr ~n:(Graph.n g) ~m:(Graph.m g) (Graph.offsets g)
      (Graph.targets g)
  in
  Format.fprintf fmt "  n=%d m=%d maxdeg=%d@." (Graph.n g) (Graph.m g)
    (Graph.max_degree g);
  let (), save_s = timed "save_csr" (fun () -> Io.save_csr csr_path g) in
  (* drop the built graph: everything downstream runs off the mapping *)
  let g, load_s = timed "mmap_load" (fun () -> Io.load_csr csr_path) in
  (* a deliberately small in-memory buffer, so the run exercises the
     streaming spill path rather than fitting in RAM by accident *)
  let sink = Congest.Trace.sink ~capacity:4_096 ~spill:spill_path () in
  let cost = Congest.Cost.create ~trace:sink () in
  let algo = Algorithms.find_decomposer "greedy" in
  (* a second recorder windowed to the decomposition alone, so the scale
     row's resource columns cover the engine, not the generator *)
  let dec_res = Resource.create () in
  let dec, dec_s =
    timed "decompose" (fun () -> algo.Algorithms.run ~cost ~seed g)
  in
  let dec_tot = Resource.totals dec_res in
  let colors = Cluster.Decomposition.num_colors dec in
  let clusters =
    Cluster.Clustering.num_clusters (Cluster.Decomposition.clustering dec)
  in
  let phases = List.length (Congest.Span.rollups sink) in
  Format.fprintf fmt
    "  colors=%d clusters=%d rounds=%d messages=%d spilled_events=%d@."
    colors clusters (Congest.Cost.rounds cost) (Congest.Cost.messages cost)
    (Congest.Trace.spilled sink);
  let audit, cert_s = timed "certify" (fun () -> Audit.certify_decomposition dec) in
  let verdict, verify_s = timed "verify" (fun () -> Audit.verify g audit) in
  (match verdict with
  | Ok () -> Format.fprintf fmt "@.audit: PASS@."
  | Error e -> Format.fprintf fmt "@.audit: FAIL (%s)@." e);
  (* the scale rows ride the same snapshot machinery as 'record';
     both are single-shot, so they carry no MAD *)
  let resources (tot : Resource.totals) =
    [
      ( "minor_words_per_node",
        Json.float "%.1f"
          (tot.Resource.t_minor_words /. float_of_int scale_n) );
      ("peak_heap_mb", Json.float "%.1f" (Resource.peak_heap_mb tot));
    ]
  in
  append_snapshot ~kind:"scale snapshot" ~fingerprint:(Lazy.force fingerprint)
    [
      {
        Trajectory.name = "scale/rmat1M";
        columns =
          [
            ("rounds", Json.int (Congest.Cost.rounds cost));
            ("messages", Json.int (Congest.Cost.messages cost));
            ("max_bits", Json.int (Congest.Cost.max_message_bits cost));
            ("phases", Json.int phases);
            ("seconds", Json.float "%.4f" dec_s);
          ]
          @ resources dec_tot;
      };
      {
        Trajectory.name = "scale/rmat1M/generate";
        columns = ("seconds", Json.float "%.4f" gen_s) :: resources gen_tot;
      };
    ];
  let csv =
    List.map
      (fun (k, v) -> Printf.sprintf "%s,%s\n" k v)
      [
        ("n", string_of_int (Graph.n g));
        ("m", string_of_int (Graph.m g));
        ("csr_checksum", string_of_int csr_checksum);
        ("colors", string_of_int colors);
        ("clusters", string_of_int clusters);
        ("rounds", string_of_int (Congest.Cost.rounds cost));
        ("messages", string_of_int (Congest.Cost.messages cost));
        ("spilled_events", string_of_int (Congest.Trace.spilled sink));
        ("audit", match verdict with Ok () -> "pass" | Error _ -> "fail");
        ("generate_seconds", Printf.sprintf "%.3f" gen_s);
        ("save_seconds", Printf.sprintf "%.3f" save_s);
        ("mmap_load_seconds", Printf.sprintf "%.3f" load_s);
        ("decompose_seconds", Printf.sprintf "%.3f" dec_s);
        ("certify_seconds", Printf.sprintf "%.3f" cert_s);
        ("verify_seconds", Printf.sprintf "%.3f" verify_s);
      ]
  in
  if write_result "scale.csv" (String.concat "" ("metric,value\n" :: csv)) then
    Format.fprintf fmt "CSV dump written to %s/scale.csv@." results_dir;
  (* the spill and the 170 MB graph image are scratch, not artifacts *)
  Congest.Trace.clear sink;
  if Sys.file_exists csr_path then Sys.remove csr_path;
  Resource.heartbeat res "done";
  verdict = Ok ()

(* ------------------------------------------------------------------ *)
(* B.ANALYZE: whole-tree static analysis wall-clock                     *)
(* ------------------------------------------------------------------ *)

(* times tools/analyze over every .cmt dune produced for lib/bench/bin
   and rides the same trajectory machinery as 'record', so the >10%
   comparator guards the analyzer's cost the way it guards the
   algorithms' *)
let run_analyze () =
  section
    "B.ANALYZE -- typed whole-program analysis (domain-safety + [@hot] \
     allocations) over the built tree";
  let roots =
    [ "_build/default/lib"; "_build/default/bench"; "_build/default/bin" ]
  in
  let cmts = List.length (Analyze_core.cmt_paths roots) in
  if cmts = 0 then
    Format.fprintf fmt
      "no .cmt files under %s -- run `dune build @@check` first; nothing \
       to time@."
    (String.concat ", " roots)
  else begin
    (* the window covers the analysis alone, not the banner or the
       directory walk above *)
    let res = Resource.create () in
    let result = Analyze_core.analyze roots in
    let tot = Resource.totals res in
    let seconds = tot.Resource.t_seconds in
    let shared =
      List.length
        (List.filter
           (fun e -> e.Analyze_core.e_class = Analyze_core.Shared)
           result.Analyze_core.r_entries)
    in
    let findings = List.length result.Analyze_core.r_findings in
    Format.fprintf fmt
      "%d cmts, %d units, %d mutable values (%d shared), %d [@@hot] \
       functions, %d findings in %.3f s@."
      cmts result.Analyze_core.r_units
      (List.length result.Analyze_core.r_entries)
      shared
      (List.length result.Analyze_core.r_hots)
      findings seconds;
    append_snapshot ~kind:"analyze snapshot"
      ~fingerprint:(Lazy.force fingerprint)
      [
        {
          Trajectory.name = "analyze/tree";
          columns =
            [
              ("units", Json.int result.Analyze_core.r_units);
              ( "mutable_values",
                Json.int (List.length result.Analyze_core.r_entries) );
              ("shared", Json.int shared);
              ("findings", Json.int findings);
              ("seconds", Json.float "%.4f" seconds);
              ( "minor_words_per_unit",
                Json.float "%.1f"
                  (tot.Resource.t_minor_words
                  /. float_of_int (max 1 result.Analyze_core.r_units)) );
              ("peak_heap_mb", Json.float "%.1f" (Resource.peak_heap_mb tot));
            ];
        };
      ];
    let csv =
      List.map
        (fun (k, v) -> Printf.sprintf "%s,%s\n" k v)
        [
          ("cmts", string_of_int cmts);
          ("units", string_of_int result.Analyze_core.r_units);
          ( "mutable_values",
            string_of_int (List.length result.Analyze_core.r_entries) );
          ("shared", string_of_int shared);
          ( "hot_functions",
            string_of_int (List.length result.Analyze_core.r_hots) );
          ("findings", string_of_int findings);
          ("seconds", Printf.sprintf "%.3f" seconds);
        ]
    in
    if write_result "analyze.csv" (String.concat "" ("metric,value\n" :: csv))
    then Format.fprintf fmt "CSV dump written to %s/analyze.csv@." results_dir
  end;
  true

(* ------------------------------------------------------------------ *)

let run_faults () =
  let rows = faults_experiment () in
  if write_result "faults.csv" (Workload.Faults.csv rows) then
    Format.fprintf fmt "@.CSV dump written to %s/faults.csv@." results_dir;
  true

let run_tables size =
  let rows1 = table1 size in
  headline size rows1;
  let rows2 = table2 size in
  shape_check size rows2;
  messages_experiment size;
  barrier_experiment size;
  lemma31_experiment size;
  apps_experiment size;
  let sim_ok = sim_experiment size in
  ablation_presets size;
  ablation_epsilon_split size;
  ablation_colors_vs_eps size;
  ablation_apps_extra size;
  timing_suite size;
  if
    write_result "table1.csv" (Workload.Measure.decomp_csv rows1)
    && write_result "table2.csv" (Workload.Measure.carve_csv rows2)
  then Format.fprintf fmt "@.CSV dumps written to %s/@." results_dir;
  sim_ok

exception Usage

let no_args = function [] -> () | _ -> raise Usage
let quick_arg = function [] -> false | [ "quick" ] -> true | _ -> raise Usage

(* every mode: its name, its argument synopsis, and its run over the
   remaining arguments (false = exit 1); the usage line is printed from
   this table *)
let modes =
  let tables size args = no_args args; run_tables size in
  let plain run args = no_args args; run () in
  [
    ("full", "", tables Full);
    ("quick", "", tables Quick);
    ("faults", "", plain run_faults);
    ("chaos", " [quick]", fun args -> run_chaos ~quick:(quick_arg args));
    ("record", "", plain run_record);
    ("scale", "", plain run_scale);
    ("analyze", "", plain run_analyze);
    ("dashboard", "", plain run_dashboard);
    ( "overhead",
      Printf.sprintf " <%s> [quick]" (String.concat "|" overhead_layers),
      function
      | layer :: rest when List.mem layer overhead_layers ->
          run_overhead layer ~quick:(quick_arg rest);
          true
      | _ -> raise Usage );
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  Format.fprintf fmt
    "strongdecomp benchmark harness -- reproduction of Chang & Ghaffari, \
     PODC 2021@.mode: %s@.usage: main.exe [%s]@."
    (if args = [] then "standard" else String.concat " " args)
    (String.concat " | " (List.map (fun (name, syn, _) -> name ^ syn) modes));
  let t0 = Resource.now () in
  let ok =
    try
      match args with
      | [] -> run_tables Standard
      | mode :: rest -> (
          match List.find_opt (fun (name, _, _) -> name = mode) modes with
          | Some (_, _, run) -> run rest
          | None -> raise Usage)
    with Usage ->
      Format.fprintf fmt "unknown mode or arguments@.";
      exit 2
  in
  Format.fprintf fmt "@.total benchmark time: %.1f s@." (Resource.now () -. t0);
  if not ok then exit 1
