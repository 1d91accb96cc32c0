(* Tests for the extension layer: Theorem 2.1 over a randomized black box
   (Linial–Saks with Steiner trees), the genuinely distributed Linial–Saks
   program, spanners and expander decomposition via the decomposition
   machinery, graph IO, and diameter-estimate cross-checks. *)

open Dsgraph
module LS = Baseline.Linial_saks
module LsT = Baseline.Ls_transform
module LsD = Baseline.Ls_distributed
module Spanner = Apps.Spanner
module ExpD = Apps.Expander_decomp
module Clustering = Cluster.Clustering
module Carving = Cluster.Carving
module Steiner = Cluster.Steiner

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let is_ok = function Ok () -> true | Error _ -> false

(* every node of [g], and the carving of [g] with these clusters *)
let all g = Array.init (Graph.n g) Fun.id
let whole g = Carving.of_clusters g ~domain:(Mask.full (Graph.n g))

let fail_on_error = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "checker rejected: %s" e

let workload seed =
  let rng = Rng.create seed in
  [
    ("path", Gen.path 64);
    ("grid", Gen.grid 8 8);
    ("tree", Gen.random_tree (Rng.split rng) 70);
    ("er", Gen.ensure_connected rng (Gen.erdos_renyi (Rng.split rng) 64 0.06));
    ("expander", Gen.expander (Rng.split rng) 64);
    ("ring_of_cliques", Gen.ring_of_cliques 6 6);
  ]

(* ------------------------------------------------------------------ *)
(* Linial–Saks with Steiner trees (the weak interface of Theorem 2.1)   *)
(* ------------------------------------------------------------------ *)

let test_ls_trees_contract () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let clusters, forest =
        LS.carve_with_trees (Rng.create 3) g ~domain:(all g) ~epsilon:0.5
      in
      let carving = whole g clusters in
      let cap = LS.max_radius ~n:(Graph.n g) ~epsilon:0.5 in
      fail_on_error
        (Carving.check_weak ~epsilon:0.5 ~steiner:forest ~depth_bound:cap
           carving))
    (workload 1)

let test_ls_trees_roots_may_be_nonmembers () =
  (* tree roots are centers, which can lose their own node to a
     higher-priority center; the forest must still validate *)
  let g = Gen.complete 12 in
  let clusters, forest =
    LS.carve_with_trees (Rng.create 1) g ~domain:(all g) ~epsilon:0.5
  in
  let carving = whole g clusters in
  check int "forest size matches clusters"
    (Clustering.num_clusters carving.Carving.clustering)
    (Array.length forest)

let test_ls_trees_depth_bounded () =
  let g = Gen.grid 9 9 in
  let epsilon = 0.25 in
  let _, forest = LS.carve_with_trees (Rng.create 7) g ~domain:(all g) ~epsilon in
  let cap = LS.max_radius ~n:81 ~epsilon in
  Array.iter
    (fun t -> check bool "depth <= cap" true (Steiner.depth t <= cap))
    forest

(* ------------------------------------------------------------------ *)
(* Theorem 2.1 over the randomized black box                            *)
(* ------------------------------------------------------------------ *)

let test_ls_transform_families () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let carving = Carving.of_carver (LsT.carve (Rng.create 5)) g ~epsilon:0.5 in
      fail_on_error (Carving.check_strong ~epsilon:0.5 carving))
    (workload 5)

let test_ls_transform_decompose () =
  let g = Gen.grid 8 8 in
  let d = LsT.decompose (Rng.create 6) g in
  fail_on_error (Cluster.Decomposition.check d);
  check bool "strong clusters" true
    (Clustering.max_strong_diameter (Cluster.Decomposition.clustering d) >= 0)

let test_ls_transform_unknown_n () =
  (* the Section 2 unknown-n wrapper composes with the randomized black
     box too *)
  let g = Gen.grid 8 8 in
  let carving =
    Cluster.Carving.of_carver
      (Strongdecomp.Transform.strong_carve_unknown_n
         ~weak:(LS.weak_carver (Rng.create 9)))
      g ~epsilon:0.5
  in
  fail_on_error (Cluster.Carving.check_strong ~epsilon:0.5 carving)

let test_ls_transform_beats_deterministic_diameter_on_path () =
  (* the randomized black box has R = O(log n/eps) trees, so Theorem 2.1
     gives O(log^2 n/eps) strong diameter — below the deterministic
     Theorem 2.2's O(log^3) on a long path *)
  let g = Gen.path 2048 in
  let rand = Carving.of_carver (LsT.carve (Rng.create 11)) g ~epsilon:0.5 in
  let det =
    Carving.of_carver (Strongdecomp.Strong_carving.carve ()) g ~epsilon:0.5
  in
  let d c = Clustering.max_strong_diameter c.Carving.clustering in
  check bool
    (Printf.sprintf "randomized %d <= deterministic %d" (d rand) (d det))
    true
    (d rand <= d det)

(* ------------------------------------------------------------------ *)
(* Distributed Linial–Saks on the true simulator                        *)
(* ------------------------------------------------------------------ *)

let test_ls_distributed_valid () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let carving, stats = LsD.carve (Rng.create 3) g ~epsilon:0.5 in
      fail_on_error (Carving.check_weak ~epsilon:0.5 carving);
      check bool "simulator halted" true stats.Congest.Sim.all_halted)
    (workload 9)

let test_ls_distributed_message_size () =
  let g = Gen.grid 9 9 in
  let _, stats = LsD.carve (Rng.create 4) g ~epsilon:0.5 in
  check bool "messages within CONGEST bandwidth" true
    (stats.Congest.Sim.max_bits_seen <= Congest.Bits.bandwidth ~n:81)

let test_ls_distributed_anchors_cost_model () =
  (* the step-granular Linial_saks.carve charges 2·cap+2 rounds per
     attempt; the real execution must not exceed that scale *)
  let g = Gen.grid 10 10 in
  let epsilon = 0.5 in
  let _, stats = LsD.carve (Rng.create 5) g ~epsilon in
  let cap = LS.max_radius ~n:100 ~epsilon in
  check bool
    (Printf.sprintf "simulated %d rounds <= charged scale %d"
       stats.Congest.Sim.rounds_used
       ((2 * cap) + 8))
    true
    (stats.Congest.Sim.rounds_used <= (2 * cap) + 8)

let test_ls_distributed_decompose () =
  let g = Gen.grid 8 8 in
  let decomp, stats = LsD.decompose (Rng.create 7) g in
  fail_on_error (Cluster.Decomposition.check decomp);
  check int "covers all" 64
    (Clustering.clustered_count (Cluster.Decomposition.clustering decomp));
  (* every message of the end-to-end run fit the CONGEST bandwidth *)
  check bool "small messages" true
    (stats.LsD.max_bits <= Congest.Bits.bandwidth ~n:64);
  check bool "rounds accumulated" true (stats.LsD.total_rounds > 0)

let test_ls_distributed_decompose_er () =
  let rng = Rng.create 8 in
  let g = Gen.ensure_connected rng (Gen.erdos_renyi rng 80 0.05) in
  let decomp, _ = LsD.decompose (Rng.create 9) g in
  fail_on_error (Cluster.Decomposition.check decomp)

(* The totals count every simulated round and message, the rejected
   attempts' too: on a run that retries, they equal the trace's
   [Round_start] and [Message_sent] events *)
let test_ls_distributed_decompose_counts_retries () =
  let sink = Congest.Trace.sink () in
  let _, stats = LsD.decompose ~trace:sink (Rng.create 3) (Gen.grid 12 12) in
  let retried = ref false and rounds = ref 0 and messages = ref 0 in
  Congest.Trace.iter
    (function
      | Congest.Trace.Span_enter { path } ->
          if String.ends_with ~suffix:"/attempt=1" path then retried := true
      | Congest.Trace.Round_start _ -> incr rounds
      | Congest.Trace.Message_sent _ -> incr messages
      | _ -> ())
    sink;
  check bool "an attempt was rejected" true !retried;
  check int "rounds" !rounds stats.LsD.total_rounds;
  check int "messages" !messages stats.LsD.total_messages

let test_ls_distributed_weak_diameter () =
  let g = Gen.grid 10 10 in
  let epsilon = 0.5 in
  let carving, _ = LsD.carve (Rng.create 6) g ~epsilon in
  let cap = LS.max_radius ~n:100 ~epsilon in
  let wd = Clustering.max_weak_diameter carving.Carving.clustering in
  check bool "weak diameter <= 2 cap" true (wd >= 0 && wd <= 2 * cap)

(* ------------------------------------------------------------------ *)
(* Luby's MIS on the simulator                                          *)
(* ------------------------------------------------------------------ *)

let test_luby_families () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let mis, stats = Apps.Luby.run g in
      fail_on_error (Apps.Mis.check g mis);
      check bool "halted" true stats.Congest.Sim.all_halted)
    (workload 41)

let test_luby_rounds_logarithmic_shape () =
  let rng = Rng.create 3 in
  let g = Gen.ensure_connected rng (Gen.erdos_renyi rng 300 0.03) in
  let _, stats = Apps.Luby.run g in
  (* O(log n) iterations of 2 rounds each, with slack *)
  check bool
    (Printf.sprintf "%d rounds is logarithmic-ish" stats.Congest.Sim.rounds_used)
    true
    (stats.Congest.Sim.rounds_used <= 64)

let test_luby_message_size () =
  let g = Gen.grid 8 8 in
  let _, stats = Apps.Luby.run g in
  check bool "small messages" true (stats.Congest.Sim.max_bits_seen <= 24)

let test_luby_deterministic_given_seed () =
  let g = Gen.grid 7 7 in
  let a, _ = Apps.Luby.run ~seed:5 g in
  let b, _ = Apps.Luby.run ~seed:5 g in
  Alcotest.(check (array bool)) "same output" a b

(* ------------------------------------------------------------------ *)
(* Distributed MPX                                                      *)
(* ------------------------------------------------------------------ *)

module MpxD = Baseline.Mpx_distributed

let test_mpx_distributed_matches_reference () =
  List.iter
    (fun (name, g) ->
      check bool (name ^ ": matches oracle") true
        (MpxD.matches_reference g ~beta:0.3))
    (workload 43)

let test_mpx_distributed_valid_partition () =
  let g = Gen.grid 8 8 in
  let r = MpxD.partition g ~beta:0.25 in
  check int "all assigned" 64 (Clustering.clustered_count r.MpxD.clustering);
  check bool "clusters connected" true
    (Clustering.max_strong_diameter r.MpxD.clustering >= 0);
  check bool "halted" true r.MpxD.sim_stats.Congest.Sim.all_halted

let test_mpx_distributed_beta_extremes () =
  let g = Gen.path 40 in
  (* huge beta: tiny shifts, everyone nearly its own cluster *)
  let frag = MpxD.partition ~seed:2 g ~beta:20.0 in
  check bool "fragmented" true
    (Clustering.num_clusters frag.MpxD.clustering > 10);
  check bool "still matches oracle" true
    (MpxD.matches_reference ~seed:2 g ~beta:20.0)

(* ------------------------------------------------------------------ *)
(* Barabási–Albert generator                                            *)
(* ------------------------------------------------------------------ *)

let test_ba_shape () =
  let g = Gen.barabasi_albert (Rng.create 4) 200 3 in
  check int "n" 200 (Graph.n g);
  check bool "connected" true (Components.is_connected g);
  (* preferential attachment: some hub far above the minimum degree *)
  check bool "has hubs" true (Graph.max_degree g >= 10);
  (* each newcomer adds at most 3 edges *)
  check bool "m bounded" true (Graph.m g <= 6 + (197 * 3))

let test_ba_validation () =
  Alcotest.check_raises "bad k"
    (Invalid_argument "Gen.barabasi_albert: need 1 <= k < n") (fun () ->
      ignore (Gen.barabasi_albert (Rng.create 1) 5 5))

(* ------------------------------------------------------------------ *)
(* Spanner                                                              *)
(* ------------------------------------------------------------------ *)

let test_spanner_families () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let spanner, _ = Spanner.run g in
      fail_on_error (Spanner.check g spanner))
    (workload 21)

let test_spanner_is_sparse_on_dense_graph () =
  let g = Gen.complete 24 in
  let spanner, decomp = Spanner.run g in
  let clustering = Cluster.Decomposition.clustering decomp in
  let pairs = List.length (Clustering.adjacent_cluster_pairs clustering) in
  check bool "edges <= n - 1 + adjacent pairs" true
    (List.length spanner.Spanner.edges <= 23 + pairs);
  check bool "far below m" true (List.length spanner.Spanner.edges < Graph.m g / 3)

let test_spanner_measured_stretch_within_bound () =
  let g = Gen.grid 10 10 in
  let spanner, _ = Spanner.run g in
  check bool "measured <= bound" true
    (Spanner.measured_stretch g spanner
    <= float_of_int spanner.Spanner.stretch_bound)

let test_spanner_on_mpx_decomposition () =
  (* works on any strong-diameter decomposition *)
  let g = Gen.erdos_renyi (Rng.create 3) 60 0.1 in
  let g = Gen.ensure_connected (Rng.create 4) g in
  let d = Baseline.Mpx.decompose (Rng.create 5) g in
  let spanner = Spanner.of_decomposition g d in
  fail_on_error (Spanner.check g spanner)

let test_spanner_rejects_weak_decomposition () =
  (* a cluster inducing a disconnected subgraph cannot host a BFS tree *)
  let g = Gen.star 6 in
  let clustering = Clustering.make g ~cluster_of:[| 0; 1; 1; 1; 1; 1 |] in
  let d = Cluster.Decomposition.make clustering ~color_of_cluster:[| 0; 1 |] in
  Alcotest.check_raises "disconnected cluster"
    (Invalid_argument
       "Spanner.of_decomposition: cluster induces a disconnected subgraph")
    (fun () -> ignore (Spanner.of_decomposition g d))

(* ------------------------------------------------------------------ *)
(* Expander decomposition                                               *)
(* ------------------------------------------------------------------ *)

let test_expander_decomp_families () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let t = ExpD.decompose g in
      fail_on_error (ExpD.check g t))
    (workload 31)

let test_expander_decomp_expander_is_one_cluster () =
  (* a genuine expander has no balanced sparse cut: one big cluster *)
  let g = Gen.expander (Rng.create 8) 128 in
  let t = ExpD.decompose g in
  let sizes = Clustering.sizes t.ExpD.clustering in
  let biggest = Array.fold_left max 0 sizes in
  check bool "dominant cluster" true (3 * biggest >= Graph.n g)

let test_expander_decomp_cliques_cut_few_edges () =
  let g = Gen.ring_of_cliques 8 8 in
  let t = ExpD.decompose g in
  check bool "few inter-cluster edges" true
    (ExpD.inter_cluster_fraction g t <= 0.25)

let test_expander_decomp_covers_disconnected_inputs () =
  let g = Gen.disjoint_union (Gen.grid 5 5) (Gen.cycle 9) in
  let t = ExpD.decompose g in
  fail_on_error (ExpD.check g t)

let test_expander_decomp_internal_conductance () =
  let g = Gen.ring_of_cliques 6 8 in
  let t = ExpD.decompose g in
  (* clusters should be at least as well-connected as the clique blocks:
     the sweep conductance inside every cluster with an edge is positive *)
  List.iter
    (fun members ->
      if List.length members > 1 then
        let h, _ = Subgraph.induce g members in
        check bool "internal conductance positive" true
          (Metrics.sweep_conductance h ~source:0 > 0.0))
    (Clustering.clusters t.ExpD.clustering)

(* ------------------------------------------------------------------ *)
(* Graph IO                                                             *)
(* ------------------------------------------------------------------ *)

let test_io_roundtrip () =
  let g = Gen.erdos_renyi (Rng.create 12) 40 0.1 in
  let text = Io.to_edge_list g in
  check bool "roundtrip" true (Graph.equal g (Io.of_edge_list text))

let test_io_preserves_isolated_nodes () =
  let g = Graph.of_edge_seq ~n:5 (Seq.return (0, 1)) in
  let g' = Io.of_edge_list (Io.to_edge_list g) in
  check int "n preserved" 5 (Graph.n g')

let test_io_infers_n_without_header () =
  let g = Io.of_edge_list "0 1\n1 2\n" in
  check int "n" 3 (Graph.n g);
  check int "m" 2 (Graph.m g)

let test_io_rejects_garbage () =
  Alcotest.check_raises "garbage"
    (Invalid_argument "Io.of_edge_list: malformed line 1: \"zero one\"")
    (fun () -> ignore (Io.of_edge_list "zero one\n"))

let test_io_file_roundtrip () =
  let g = Gen.grid 5 5 in
  let path = Filename.temp_file "dsgraph" ".edges" in
  Io.save path g;
  let g' = Io.load path in
  Sys.remove path;
  check bool "file roundtrip" true (Graph.equal g g')

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else go (i + 1)
  in
  go 0

let test_io_dot_output () =
  let g = Gen.path 3 in
  let dot = Io.to_dot ~cluster_of:(fun v -> if v < 2 then 0 else -1) g in
  check bool "mentions edge" true (contains dot "0 -- 1");
  check bool "unclustered node is white" true (contains dot "2 [fillcolor=\"#ffffff\"]");
  check bool "clustered node colored" true (contains dot "0 [fillcolor=\"#a6cee3\"]")

(* ------------------------------------------------------------------ *)
(* Diameter estimates vs exact                                          *)
(* ------------------------------------------------------------------ *)

let prop_estimates_bracket_exact =
  QCheck.Test.make ~name:"double-sweep estimates bracket the exact diameter"
    ~count:50
    (QCheck.make
       ~print:(fun (s, n, p) -> Printf.sprintf "seed=%d n=%d p=%d" s n p)
       QCheck.Gen.(triple (int_bound 10_000) (int_range 2 30) (int_range 5 30)))
    (fun (seed, n, pct) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      (* random clustering by parity of id blocks *)
      let cluster_of = Array.init (Graph.n g) (fun v -> v mod 3) in
      let c = Clustering.make g ~cluster_of in
      let scratch = Bfs.scratch (Graph.n g) in
      let ok = ref true in
      for i = 0 to Clustering.num_clusters c - 1 do
        let exact = Clustering.strong_diameter c i in
        let est = Clustering.strong_diameter_estimate ~scratch c i in
        (* both agree on connectivity; the estimate is a lower bound
           within a factor 2 *)
        if exact = -1 then ok := !ok && est = -1
        else ok := !ok && est <= exact && exact <= (2 * est) + 1;
        let wexact = Clustering.weak_diameter c i in
        let west = Clustering.weak_diameter_estimate ~scratch c i in
        if wexact = -1 then ok := !ok && west = -1
        else ok := !ok && west <= wexact && wexact <= (2 * west) + 1
      done;
      !ok)

let prop_ls_transform_valid =
  QCheck.Test.make ~name:"theorem 2.1 over linial-saks is a valid strong carving"
    ~count:45
    (QCheck.make
       ~print:(fun (s, n, p) -> Printf.sprintf "seed=%d n=%d p=%d" s n p)
       QCheck.Gen.(triple (int_bound 10_000) (int_range 2 40) (int_range 3 25)))
    (fun (seed, n, pct) ->
      let rng = Rng.create seed in
      let g =
        Gen.ensure_connected rng (Gen.erdos_renyi rng n (float_of_int pct /. 100.0))
      in
      let carving =
        Carving.of_carver (LsT.carve (Rng.create (seed + 1))) g ~epsilon:0.5
      in
      is_ok (Carving.check_strong ~epsilon:0.5 carving))

(* The pruned descending-priority Linial–Saks pass against the
   mask-based oracle of linial_saks_ref.ml, which runs a full truncated
   BFS from every domain node and a Hashtbl BFS per center for its tree:
   on grids, ER, RMAT and scrambled grids, a random ascending domain and
   ε ∈ {0.5, 0.1, 0.02}, the same winner and slack of every domain node,
   the same clusters, forest, depth, congestion and Cost, with equally
   seeded generators. *)
let prop_ls_matches_oracle =
  QCheck.Test.make ~name:"pruned linial-saks pass equals the oracle"
    ~count:150
    (QCheck.make
       ~print:(fun (seed, family, eps) ->
         Printf.sprintf "seed=%d family=%d eps=%d" seed family eps)
       QCheck.Gen.(triple (int_bound 1_000_000) (int_range 0 3) (int_range 0 2)))
    (fun (seed, family, eps) ->
      let rng = Rng.create seed in
      let g =
        if family = 3 then Gen.grid (2 + Rng.int rng 11) (2 + Rng.int rng 11)
        else Random_graph.make rng family
      in
      let n = Graph.n g in
      let epsilon = [| 0.5; 0.1; 0.02 |].(eps) in
      let keep = if Rng.bool rng then 1.0 else 0.3 +. Rng.float rng 0.7 in
      let domain =
        Array.of_list
          (List.filter (fun _ -> Rng.float rng 1.0 < keep) (Graph.nodes g))
      in
      let mask = Mask.of_list n (Array.to_list domain) in
      let protect f = try Ok (f ()) with Failure m -> Error m in
      let same_cost a b =
        Congest.Cost.breakdown a = Congest.Cost.breakdown b
        && Congest.Cost.rounds a = Congest.Cost.rounds b
        && Congest.Cost.messages a = Congest.Cost.messages b
        && Congest.Cost.max_message_bits a = Congest.Cost.max_message_bits b
      in
      let labels (c : Carving.t) =
        Array.init n (Clustering.cluster_of c.Carving.clustering)
      in
      let r = Rng.create (seed + 1) in
      let winners, max_r = LS.winners r g ~domain ~epsilon in
      let ref_winners, ref_max_r =
        Linial_saks_ref.winners (Rng.create (seed + 1)) g ~domain:mask
          ~epsilon
      in
      let pass =
        max_r = ref_max_r
        && Array.for_all2
             (fun v w -> ref_winners.(v) = Some w)
             domain winners
      in
      let ca = Congest.Cost.create () and cb = Congest.Cost.create () in
      let a =
        protect (fun () ->
            let clusters, forest =
              LS.carve_with_trees (Rng.create seed) ~cost:ca g ~domain
                ~epsilon
            in
            (labels (Carving.of_clusters g ~domain:mask clusters), forest))
      in
      let b =
        protect (fun () ->
            let c, forest =
              Linial_saks_ref.carve_with_trees ~cost:cb (Rng.create seed)
                ~domain:mask g ~epsilon
            in
            (labels c, forest))
      in
      let ua = Congest.Cost.create () and ub = Congest.Cost.create () in
      let a' =
        protect (fun () ->
            labels
              (Carving.of_clusters g ~domain:mask
                 (LS.carve (Rng.create seed) ~cost:ua g ~domain ~epsilon)))
      in
      let b' =
        protect (fun () ->
            labels
              (Linial_saks_ref.carve ~cost:ub (Rng.create seed) ~domain:mask g
                 ~epsilon))
      in
      let weak =
        match
          ( b,
            protect (fun () -> LS.weak_carver (Rng.create seed) g ~domain ~epsilon)
          )
        with
        | Ok (_, forest), Ok w ->
            w.Strongdecomp.Transform.roots
            = Array.map (fun t -> t.Steiner.root) forest
            && w.depth
               = Array.fold_left (fun d t -> max d (Steiner.depth t)) 0 forest
            && w.congestion = Steiner.congestion g forest
        | Error x, Error y -> x <> "" && y <> ""
        | _ -> false
      in
      pass && a = b && same_cost ca cb && a' = b' && same_cost ua ub && weak)

let prop_ls_distributed_valid =
  QCheck.Test.make ~name:"distributed linial-saks is a valid weak carving"
    ~count:45
    (QCheck.make
       ~print:(fun (s, n, p) -> Printf.sprintf "seed=%d n=%d p=%d" s n p)
       QCheck.Gen.(triple (int_bound 10_000) (int_range 2 40) (int_range 3 25)))
    (fun (seed, n, pct) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      let carving, _ = LsD.carve (Rng.create (seed + 1)) g ~epsilon:0.5 in
      is_ok (Carving.check_weak ~epsilon:0.5 carving))

let prop_mpx_distributed_matches =
  QCheck.Test.make ~name:"distributed mpx matches its centralized oracle"
    ~count:60
    (QCheck.make
       ~print:(fun (s, n, p, b) -> Printf.sprintf "seed=%d n=%d p=%d beta=%d/10" s n p b)
       QCheck.Gen.(
         quad (int_bound 50_000) (int_range 2 35) (int_range 4 30)
           (int_range 1 15)))
    (fun (seed, n, pct, b) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      MpxD.matches_reference ~seed g ~beta:(float_of_int b /. 10.0))

let prop_luby_valid =
  QCheck.Test.make ~name:"luby mis is independent and maximal" ~count:60
    (QCheck.make
       ~print:(fun (s, n, p) -> Printf.sprintf "seed=%d n=%d p=%d" s n p)
       QCheck.Gen.(triple (int_bound 50_000) (int_range 2 40) (int_range 4 30)))
    (fun (seed, n, pct) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      let mis, _ = Apps.Luby.run ~seed g in
      is_ok (Apps.Mis.check g mis))

let prop_io_roundtrip =
  QCheck.Test.make ~name:"edge-list IO roundtrips" ~count:50
    (QCheck.make
       ~print:(fun (s, n, p) -> Printf.sprintf "seed=%d n=%d p=%d" s n p)
       QCheck.Gen.(triple (int_bound 10_000) (int_range 0 40) (int_range 0 40)))
    (fun (seed, n, pct) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      Graph.equal g (Io.of_edge_list (Io.to_edge_list g)))

let () =
  Alcotest.run "extensions"
    [
      ( "ls_trees",
        [
          Alcotest.test_case "contract" `Quick test_ls_trees_contract;
          Alcotest.test_case "roots may be nonmembers" `Quick
            test_ls_trees_roots_may_be_nonmembers;
          Alcotest.test_case "depth bounded" `Quick test_ls_trees_depth_bounded;
        ] );
      ( "ls_transform",
        [
          Alcotest.test_case "families" `Quick test_ls_transform_families;
          Alcotest.test_case "decompose" `Quick test_ls_transform_decompose;
          Alcotest.test_case "unknown n over ls93" `Quick
            test_ls_transform_unknown_n;
          Alcotest.test_case "beats deterministic on path" `Quick
            test_ls_transform_beats_deterministic_diameter_on_path;
        ] );
      ( "ls_distributed",
        [
          Alcotest.test_case "valid" `Quick test_ls_distributed_valid;
          Alcotest.test_case "message size" `Quick
            test_ls_distributed_message_size;
          Alcotest.test_case "anchors cost model" `Quick
            test_ls_distributed_anchors_cost_model;
          Alcotest.test_case "weak diameter" `Quick
            test_ls_distributed_weak_diameter;
          Alcotest.test_case "decompose end-to-end" `Quick
            test_ls_distributed_decompose;
          Alcotest.test_case "decompose er" `Quick
            test_ls_distributed_decompose_er;
          Alcotest.test_case "decompose counts retries" `Quick
            test_ls_distributed_decompose_counts_retries;
        ] );
      ( "luby",
        [
          Alcotest.test_case "families" `Quick test_luby_families;
          Alcotest.test_case "rounds logarithmic" `Quick
            test_luby_rounds_logarithmic_shape;
          Alcotest.test_case "message size" `Quick test_luby_message_size;
          Alcotest.test_case "deterministic by seed" `Quick
            test_luby_deterministic_given_seed;
        ] );
      ( "mpx_distributed",
        [
          Alcotest.test_case "matches reference" `Quick
            test_mpx_distributed_matches_reference;
          Alcotest.test_case "valid partition" `Quick
            test_mpx_distributed_valid_partition;
          Alcotest.test_case "beta extremes" `Quick
            test_mpx_distributed_beta_extremes;
        ] );
      ( "barabasi_albert",
        [
          Alcotest.test_case "shape" `Quick test_ba_shape;
          Alcotest.test_case "validation" `Quick test_ba_validation;
        ] );
      ( "spanner",
        [
          Alcotest.test_case "families" `Quick test_spanner_families;
          Alcotest.test_case "sparse on dense" `Quick
            test_spanner_is_sparse_on_dense_graph;
          Alcotest.test_case "measured stretch" `Quick
            test_spanner_measured_stretch_within_bound;
          Alcotest.test_case "mpx decomposition" `Quick
            test_spanner_on_mpx_decomposition;
          Alcotest.test_case "rejects weak" `Quick
            test_spanner_rejects_weak_decomposition;
        ] );
      ( "expander_decomp",
        [
          Alcotest.test_case "families" `Quick test_expander_decomp_families;
          Alcotest.test_case "expander one cluster" `Quick
            test_expander_decomp_expander_is_one_cluster;
          Alcotest.test_case "cliques few cuts" `Quick
            test_expander_decomp_cliques_cut_few_edges;
          Alcotest.test_case "disconnected inputs" `Quick
            test_expander_decomp_covers_disconnected_inputs;
          Alcotest.test_case "internal conductance" `Quick
            test_expander_decomp_internal_conductance;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "isolated nodes" `Quick
            test_io_preserves_isolated_nodes;
          Alcotest.test_case "infers n" `Quick test_io_infers_n_without_header;
          Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "dot output" `Quick test_io_dot_output;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_estimates_bracket_exact;
            prop_ls_transform_valid;
            prop_ls_matches_oracle;
            prop_ls_distributed_valid;
            prop_mpx_distributed_matches;
            prop_luby_valid;
            prop_io_roundtrip;
          ] );
    ]
