open Dsgraph
module SC = Strongdecomp.Sparse_cut
module Transform = Strongdecomp.Transform
module Carve = Strongdecomp.Strong_carving
module Improve = Strongdecomp.Improve
module Netdecomp = Strongdecomp.Netdecomp
module Barrier = Strongdecomp.Barrier
module EdgeC = Strongdecomp.Edge_carving
module Clustering = Cluster.Clustering
module Carving = Cluster.Carving
module Decomposition = Cluster.Decomposition

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let is_ok = function Ok () -> true | Error _ -> false

let all n = Array.init n Fun.id

(* A carving of the ascending [domain] (default: every node) from its
   clusters, and the stats of the call that made them *)
let carving_of ?domain g carve =
  let n = Graph.n g in
  let domain = Option.value domain ~default:(all n) in
  let clusters, stats = carve domain in
  let mask = Mask.of_list n (Array.to_list domain) in
  (Carving.of_clusters g ~domain:mask clusters, stats)

(* Theorem 2.2 with the transformation's stats *)
let carve ?(preset = Weakdiam.Weak_carving.default_preset) ?cost ?domain g
    ~epsilon =
  carving_of ?domain g (fun domain ->
      Transform.strong_carve ?cost ~weak:(Carve.weak_of_preset preset) g
        ~domain ~epsilon)

(* Theorem 3.3 with the improvement's stats *)
let carve_improved ?domain g ~epsilon =
  carving_of ?domain g (fun domain ->
      Improve.improve ~strong:(Carve.carve ()) g ~domain ~epsilon)

let fail_on_error = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "checker rejected: %s" e

let log2_ceil n =
  let rec go acc k = if k >= n then acc else go (acc + 1) (2 * k) in
  max 1 (go 0 1)

(* Analytic diameter bound for Lemma 3.1 components (see Sparse_cut docs):
   r* <= ceil(log2 n) · (K + 2) + K, diameter <= 2·r*. *)
let lemma_diameter_bound ~n ~epsilon =
  let k = SC.window ~n ~epsilon in
  2 * ((log2_ceil n * (k + 2)) + k)

let workload seed =
  let rng = Rng.create seed in
  [
    ("path", Gen.path 64);
    ("cycle", Gen.cycle 50);
    ("grid", Gen.grid 8 8);
    ("tree", Gen.random_tree (Rng.split rng) 70);
    ("er", Gen.ensure_connected rng (Gen.erdos_renyi (Rng.split rng) 64 0.06));
    ("hypercube", Gen.hypercube 6);
    ("ring_of_cliques", Gen.ring_of_cliques 6 6);
    ("expander", Gen.expander (Rng.split rng) 64);
    ("barbell", Gen.barbell 12 10);
  ]

(* ------------------------------------------------------------------ *)
(* Lemma 3.1                                                            *)
(* ------------------------------------------------------------------ *)

let validate_sparse_cut ~epsilon g =
  let n = Graph.n g in
  let outcome = SC.run ~epsilon (SC.scratch ()) g ~domain:(all n) in
  let members = List.init n Fun.id in
  (match outcome with
  | SC.Cut { v1; v2; removed } ->
      let v1 = Array.to_list v1 and v2 = Array.to_list v2 in
      let removed = Array.to_list removed in
      (* partition *)
      let all = List.sort compare (v1 @ v2 @ removed) in
      Alcotest.(check (list int)) "cut partitions domain" members all;
      (* balance *)
      check bool "v1 large" true (3 * List.length v1 >= n);
      check bool "v2 large" true (3 * List.length v2 >= n);
      (* non-adjacency *)
      let m1 = Mask.of_list n v1 in
      List.iter
        (fun v ->
          Graph.iter_neighbors g v (fun w ->
              check bool "v2 not adjacent to v1" false (Mask.mem m1 w)))
        v2
  | SC.Component { u; boundary } ->
      let u = Array.to_list u and boundary = Array.to_list boundary in
      check bool "u large" true (3 * List.length u >= n);
      (* boundary is exactly the outside nodes adjacent to u *)
      let mu = Mask.of_list n u in
      let expected = Metrics.node_boundary g mu in
      Alcotest.(check (list int))
        "boundary exact" expected
        (List.sort compare boundary);
      (* diameter bound *)
      let d = Bfs.diameter_of_set g u in
      check bool "u connected" true (d >= 0);
      check bool
        (Printf.sprintf "u diameter %d within analytic bound %d" d
           (lemma_diameter_bound ~n ~epsilon))
        true
        (d <= lemma_diameter_bound ~n ~epsilon));
  outcome

let test_sparse_cut_families () =
  List.iter
    (fun (name, g) ->
      ignore (validate_sparse_cut ~epsilon:0.5 g);
      ignore name)
    (workload 11)

let test_sparse_cut_epsilons () =
  let g = Gen.grid 10 10 in
  List.iter (fun e -> ignore (validate_sparse_cut ~epsilon:e g)) [ 0.5; 0.25 ]

let test_sparse_cut_singleton () =
  let g = Graph.of_edge_seq ~n:1 Seq.empty in
  match SC.run (SC.scratch ()) g ~domain:(all 1) with
  | SC.Component { u; boundary } ->
      Alcotest.(check (array int)) "u" [| 0 |] u;
      Alcotest.(check (array int)) "no boundary" [||] boundary
  | SC.Cut _ -> Alcotest.fail "expected component on singleton"

let test_sparse_cut_long_path_returns_cut () =
  (* a long path has huge diameter: the [a,b] window is wide, so the
     algorithm must find a balanced sparse cut (of a single node) *)
  let g = Gen.path 400 in
  match SC.run ~epsilon:0.5 (SC.scratch ()) g ~domain:(all 400) with
  | SC.Cut { removed; _ } ->
      check bool "tiny separator" true (Array.length removed <= 3)
  | SC.Component { u; _ } ->
      (* also acceptable only if the diameter bound holds, which on a long
         path forces a small component — contradiction with |u| >= n/3 *)
      Alcotest.failf "expected cut on path, got component of size %d"
        (Array.length u)

let test_sparse_cut_clique_returns_component () =
  let g = Gen.complete 30 in
  match SC.run ~epsilon:0.5 (SC.scratch ()) g ~domain:(all 30) with
  | SC.Component { u; boundary } ->
      check bool "everything" true (Array.length u + Array.length boundary = 30)
  | SC.Cut _ -> Alcotest.fail "clique has no balanced sparse cut"

let test_sparse_cut_rejects_disconnected () =
  let g = Gen.disjoint_union (Gen.path 3) (Gen.path 3) in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Sparse_cut.run: domain disconnected") (fun () ->
      ignore (SC.run (SC.scratch ()) g ~domain:(all 6)))

let test_sparse_cut_rejects_empty () =
  let g = Gen.path 3 in
  Alcotest.check_raises "empty" (Invalid_argument "Sparse_cut.run: empty domain")
    (fun () -> ignore (SC.run (SC.scratch ()) g ~domain:[||]))

let test_sparse_cut_charges_cost () =
  let cost = Congest.Cost.create () in
  let g = Gen.grid 8 8 in
  ignore (SC.run ~cost (SC.scratch ()) g ~domain:(all 64));
  check bool "rounds" true (Congest.Cost.rounds cost > 0)

let test_sparse_cut_window_monotone () =
  check bool "smaller eps, larger window" true
    (SC.window ~n:1024 ~epsilon:0.25 > SC.window ~n:1024 ~epsilon:0.5);
  check bool "larger n, larger window" true
    (SC.window ~n:4096 ~epsilon:0.5 >= SC.window ~n:64 ~epsilon:0.5)

(* ------------------------------------------------------------------ *)
(* Theorem 2.1 / 2.2: strong carving                                    *)
(* ------------------------------------------------------------------ *)

let validate_strong_carving ?preset ~epsilon g =
  let carving, stats = carve ?preset g ~epsilon in
  fail_on_error (Carving.check_strong ~epsilon carving);
  let diam = Clustering.max_strong_diameter carving.Carving.clustering in
  check bool "clusters connected" true (diam >= 0);
  check bool
    (Printf.sprintf "diameter %d <= 2·max_ball_radius %d" diam
       (2 * stats.Transform.max_ball_radius))
    true
    (diam <= max 1 (2 * stats.Transform.max_ball_radius));
  (carving, stats)

let test_thm22_families () =
  List.iter
    (fun (name, g) ->
      ignore name;
      ignore (validate_strong_carving ~epsilon:0.5 g))
    (workload 21)

let test_thm22_rg20_preset () =
  List.iter
    (fun (name, g) ->
      ignore name;
      ignore
        (validate_strong_carving ~preset:Weakdiam.Weak_carving.Rg20
           ~epsilon:0.5 g))
    (workload 22)

let test_thm22_epsilon_sweep () =
  let g = Gen.grid 9 9 in
  List.iter
    (fun epsilon -> ignore (validate_strong_carving ~epsilon g))
    [ 0.5; 0.25; 0.125 ]

let test_thm22_iterations_logarithmic () =
  let g = Gen.grid 12 12 in
  let _, stats = carve g ~epsilon:0.5 in
  check bool "iterations <= 2·log2 n + 2" true
    (stats.Transform.iterations <= (2 * log2_ceil 144) + 2)

let test_thm22_ball_radius_bound () =
  (* r* <= R + growth_limit; with the Rg20 preset R has an analytic bound *)
  let g = Gen.grid 10 10 in
  let n = 100 in
  let epsilon = 0.5 in
  let cost = Congest.Cost.create () in
  let carving, stats =
    carve ~cost ~preset:Weakdiam.Weak_carving.Rg20 g ~epsilon
  in
  ignore carving;
  let b = Congest.Bits.id_bits ~n in
  let eps' = epsilon /. (2.0 *. float_of_int (log2_ceil n)) in
  let depth_bound = int_of_float (float_of_int (4 * b * b * b) /. eps') + (4 * b) in
  let limit = Transform.ball_growth_limit ~n ~epsilon in
  check bool "ball radius within R(n,eps') + growth limit" true
    (stats.Transform.max_ball_radius <= depth_bound + limit)

let test_thm22_dead_fraction_tight_epsilon () =
  let g = Gen.expander (Rng.create 3) 128 in
  List.iter
    (fun epsilon ->
      let carving, _ = carve g ~epsilon in
      check bool
        (Printf.sprintf "dead fraction within %.3f" epsilon)
        true
        (Carving.dead_fraction carving <= epsilon +. 1e-9))
    [ 0.5; 0.25; 0.125 ]

let test_thm22_domain_restriction () =
  let g = Gen.grid 8 8 in
  let carving, _ = carve ~domain:(all 40) g ~epsilon:0.5 in
  fail_on_error (Carving.check_strong ~epsilon:0.5 carving);
  for v = 40 to 63 do
    check int "outside untouched" (-1)
      (Clustering.cluster_of carving.Carving.clustering v)
  done

let test_thm22_deterministic () =
  let g = Gen.erdos_renyi (Rng.create 17) 60 0.07 in
  let c1, _ = carve g ~epsilon:0.5 in
  let c2, _ = carve g ~epsilon:0.5 in
  for v = 0 to 59 do
    check int "same output"
      (Clustering.cluster_of c1.Carving.clustering v)
      (Clustering.cluster_of c2.Carving.clustering v)
  done

let test_thm22_domain_size_mismatch () =
  (* a domain sized for a larger graph names nodes this graph lacks; a
     shorter one is a proper subdomain and carves only its own nodes *)
  let g = Gen.grid 6 6 in
  Alcotest.check_raises "long domain"
    (Invalid_argument
       "Transform.strong_carve: domain must be strictly ascending node ids \
        of the graph")
    (fun () -> ignore (Carve.carve () g ~domain:(all 40) ~epsilon:0.5));
  let carving, _ = carve ~domain:(all 10) g ~epsilon:0.5 in
  check int "short domain" 10 (Mask.count carving.Carving.domain);
  for v = 10 to Graph.n g - 1 do
    check int "outside short domain unclustered" (-1)
      (Clustering.cluster_of carving.Carving.clustering v)
  done

let test_thm22_message_size_small () =
  let cost = Congest.Cost.create () in
  let g = Gen.grid 8 8 in
  ignore (Carving.of_carver ~cost (Carve.carve ()) g ~epsilon:0.5);
  check bool "O(log n) bit messages" true
    (Congest.Cost.max_message_bits cost <= 2 * Congest.Bits.id_bits ~n:64)

(* ------------------------------------------------------------------ *)
(* Section 2 remark: removing the global-n assumption                   *)
(* ------------------------------------------------------------------ *)

let weak_box preset : Transform.weak_carver =
 fun ?cost g ~domain ~epsilon ->
  let r = Weakdiam.Weak_carving.carve_local ~preset ?cost g ~domain ~epsilon in
  {
    Transform.clusters = r.members;
    roots = r.roots;
    depth = r.max_depth;
    congestion = r.congestion;
  }

let unknown_n =
  Transform.strong_carve_unknown_n
    ~weak:(weak_box Weakdiam.Weak_carving.Ggr21)

let test_unknown_n_families () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let carving = Carving.of_carver unknown_n g ~epsilon:0.5 in
      fail_on_error (Carving.check_strong ~epsilon:0.5 carving))
    (workload 61)

let test_unknown_n_matches_known_n_contract () =
  (* not the same output as strong_carve, but the same contract *)
  let g = Gen.grid 9 9 in
  List.iter
    (fun epsilon ->
      let carving = Carving.of_carver unknown_n g ~epsilon in
      fail_on_error (Carving.check_strong ~epsilon carving))
    [ 0.5; 0.25 ]

let test_unknown_n_domain () =
  let g = Gen.grid 8 8 in
  let carving =
    Carving.of_clusters g
      ~domain:(Mask.of_list 64 (List.init 32 Fun.id))
      (unknown_n g ~domain:(all 32) ~epsilon:0.5)
  in
  fail_on_error (Carving.check_strong ~epsilon:0.5 carving);
  for v = 32 to 63 do
    check int "outside untouched" (-1)
      (Clustering.cluster_of carving.Carving.clustering v)
  done

(* ------------------------------------------------------------------ *)
(* Theorem 3.2 / 3.3: improved diameter                                 *)
(* ------------------------------------------------------------------ *)

let validate_improved ~epsilon g =
  let carving, stats = carve_improved g ~epsilon in
  fail_on_error (Carving.check_strong ~epsilon carving);
  let n = Graph.n g in
  let diam = Clustering.max_strong_diameter carving.Carving.clustering in
  check bool "connected clusters" true (diam >= 0);
  (* every final cluster came out of Lemma 3.1 with eps/4 *)
  let bound = lemma_diameter_bound ~n ~epsilon:(epsilon /. 4.0) in
  check bool
    (Printf.sprintf "diameter %d within lemma bound %d" diam bound)
    true (diam <= bound);
  (carving, stats)

let test_thm33_families () =
  List.iter
    (fun (name, g) ->
      ignore name;
      ignore (validate_improved ~epsilon:0.5 g))
    (workload 31)

let test_thm33_levels_logarithmic () =
  let g = Gen.grid 10 10 in
  let _, stats = carve_improved g ~epsilon:0.5 in
  check bool "levels" true (stats.Improve.levels <= (3 * log2_ceil 100) + 3)

let test_thm33_domain_restriction () =
  let g = Gen.grid 8 8 in
  let domain = Array.init 48 (fun k -> k + 16) in
  let carving, _ = carve_improved ~domain g ~epsilon:0.5 in
  fail_on_error (Carving.check_strong ~epsilon:0.5 carving);
  for v = 0 to 15 do
    check int "outside untouched" (-1)
      (Clustering.cluster_of carving.Carving.clustering v)
  done

let test_thm33_stats_consistent () =
  let g = Gen.expander (Rng.create 9) 64 in
  let _, stats = carve_improved g ~epsilon:0.5 in
  check bool "every lemma call is a cut or a component" true
    (stats.Improve.lemma_invocations
    = stats.Improve.cuts_taken + stats.Improve.components_taken);
  check bool "some component emitted" true (stats.Improve.components_taken > 0)

(* ------------------------------------------------------------------ *)
(* Theorem 2.1 as a composed distributed execution                      *)
(* ------------------------------------------------------------------ *)

module TD = Strongdecomp.Transform_distributed

let small_workload seed =
  let rng = Rng.create seed in
  [
    ("path", Gen.path 20);
    ("grid", Gen.grid 5 5);
    ("er", Gen.ensure_connected rng (Gen.erdos_renyi (Rng.split rng) 28 0.12));
    ("cliquering", Gen.ring_of_cliques 3 4);
    ("star", Gen.star 12);
    ("two components", Gen.disjoint_union (Gen.path 8) (Gen.cycle 6));
  ]

let test_transform_distributed_matches () =
  List.iter
    (fun (name, g) ->
      check bool
        (name ^ ": distributed Thm 2.1 equals centralized")
        true
        (TD.matches_centralized g ~epsilon:0.5))
    (small_workload 71)

let test_transform_distributed_valid () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let carving, stats = TD.strong_carve g ~epsilon:0.5 in
      fail_on_error (Carving.check_strong ~epsilon:0.5 carving);
      check bool "weak stages matched their engines" true stats.TD.all_matched;
      check bool "small messages" true
        (stats.TD.max_bits <= Congest.Bits.bandwidth ~n:(Graph.n g) + 8))
    (small_workload 72)

let test_transform_distributed_epsilons () =
  let g = Gen.grid 5 5 in
  List.iter
    (fun epsilon ->
      check bool "matches" true (TD.matches_centralized g ~epsilon))
    [ 0.5; 0.25 ]

let test_transform_distributed_rg20_preset () =
  let g = Gen.path 18 in
  check bool "matches with rg20 preset" true
    (TD.matches_centralized ~preset:Weakdiam.Weak_carving.Rg20 g ~epsilon:0.5)

(* The simulated run's counts on a 32x32 grid, and the charged rounds of
   the centralized run on the same graph: the anchor of the cost model *)
let test_transform_distributed_grid32_counts () =
  let g = Gen.grid 32 32 in
  check bool "matches centralized" true (TD.matches_centralized g ~epsilon:0.5);
  let sink = Congest.Trace.sink () in
  let _, stats = TD.strong_carve ~trace:sink g ~epsilon:0.5 in
  check int "iterations" 1 stats.TD.iterations;
  check int "simulated rounds" 26_736 stats.TD.rounds;
  check int "simulated messages" 305_783 stats.TD.messages;
  check int "max bits" 24 stats.TD.max_bits;
  (* one component: A's 26,544 rounds, then Case II's 192 *)
  let incl path =
    match
      List.find_opt
        (fun (r : Congest.Span.rollup) -> r.Congest.Span.path = path)
        (Congest.Span.rollups sink)
    with
    | Some r -> r.Congest.Span.rounds_incl
    | None -> Alcotest.failf "no span %s" path
  in
  check int "weak stage rounds" 26_544 (incl "transform/level=1/weak");
  check int "ball stage rounds" 192 (incl "transform/level=1/case_ii");
  let cost = Congest.Cost.create () in
  ignore (Carving.of_carver ~cost (Carve.carve ()) g ~epsilon:0.5);
  check int "charged rounds" 6_350 (Congest.Cost.rounds cost)

(* Components run in parallel, each A and then its ball: a level costs
   the max over components of their sum, not the max weak stage plus
   the max ball (912 + 36 = 948 here) *)
let test_transform_distributed_level_rounds () =
  let g = Gen.erdos_renyi (Rng.create 6) 16 0.14 in
  check bool "matches centralized" true (TD.matches_centralized g ~epsilon:0.5);
  let _, stats = TD.strong_carve g ~epsilon:0.5 in
  check int "iterations" 2 stats.TD.iterations;
  check int "rounds" 933 stats.TD.rounds

(* the simulator reports every round to the sink; the meter composing
   the stats adds no Cost_charged event of its own *)
let test_transform_distributed_traced () =
  let sink = Congest.Trace.sink () in
  let _, stats = TD.strong_carve ~trace:sink (Gen.grid 8 8) ~epsilon:0.5 in
  let starts = ref 0 and charges = ref 0 in
  Congest.Trace.iter
    (function
      | Congest.Trace.Round_start _ -> incr starts
      | Congest.Trace.Cost_charged _ -> incr charges
      | _ -> ())
    sink;
  check int "no Cost_charged event" 0 !charges;
  let rolls = Congest.Span.rollups sink in
  check int "self rounds = Round_start events" !starts
    (List.fold_left (fun acc r -> acc + r.Congest.Span.rounds) 0 rolls);
  (* one non-trivial component per level, so nothing runs in parallel *)
  check int "stats rounds = Round_start events" stats.TD.rounds !starts;
  List.iter
    (fun path ->
      check bool (path ^ " recorded") true
        (List.exists (fun r -> r.Congest.Span.path = path) rolls))
    [
      "transform/level=1/weak/weakdiam_sim";
      "transform/level=1/case_ii/bfs";
      "transform/level=1/case_ii/pair_counts";
      "transform/level=1/case_ii/broadcast";
    ]

let prop_transform_distributed =
  QCheck.Test.make
    ~name:"distributed theorem 2.1 equals the centralized transformation"
    ~count:35
    (QCheck.make
       ~print:(fun (s, n, p) -> Printf.sprintf "seed=%d n=%d p=%d" s n p)
       QCheck.Gen.(triple (int_bound 50_000) (int_range 2 26) (int_range 5 30)))
    (fun (seed, n, pct) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      TD.matches_centralized g ~epsilon:0.5)

(* ------------------------------------------------------------------ *)
(* Theorems 2.3 / 3.4: network decomposition                            *)
(* ------------------------------------------------------------------ *)

let color_bound n = (4 * log2_ceil n) + 4

let validate_strong_decomposition decomp g =
  let n = Graph.n g in
  fail_on_error (Decomposition.check ~colors_bound:(color_bound n) decomp);
  (match Clustering.max_strong_diameter (Decomposition.clustering decomp) with
  | -1 -> Alcotest.fail "a cluster is internally disconnected"
  | _ -> ());
  decomp

let test_thm23_families () =
  List.iter
    (fun (name, g) ->
      ignore name;
      ignore (validate_strong_decomposition (Netdecomp.strong g) g))
    (workload 41)

let test_thm34_families () =
  List.iter
    (fun (name, g) ->
      ignore name;
      ignore (validate_strong_decomposition (Netdecomp.strong_improved g) g))
    (workload 42)

let test_weak_decomposition_families () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let d = Netdecomp.weak g in
      fail_on_error
        (Decomposition.check ~colors_bound:(color_bound (Graph.n g)) d);
      (* weak clusters must at least be connected through the host graph *)
      check bool "weak diameter finite" true
        (Clustering.max_weak_diameter (Decomposition.clustering d) >= 0))
    (workload 43)

let test_decomposition_disconnected_graph () =
  (* the whole stack must handle disconnected inputs: components are
     processed independently *)
  let g =
    Gen.disjoint_union
      (Gen.disjoint_union (Gen.grid 5 5) (Gen.cycle 9))
      (Gen.path 14)
  in
  let d23 = Netdecomp.strong g in
  fail_on_error (Decomposition.check d23);
  check int "covers everything" (Graph.n g)
    (Clustering.clustered_count (Decomposition.clustering d23));
  let d34 = Netdecomp.strong_improved g in
  fail_on_error (Decomposition.check d34)

let test_decomposition_covers_all_nodes () =
  let g = Gen.grid 9 9 in
  let d = Netdecomp.strong g in
  check int "all clustered" (Graph.n g)
    (Clustering.clustered_count (Decomposition.clustering d))

let test_decomposition_color_sizes_halve () =
  (* color 0 holds at least half the nodes (eps = 1/2) *)
  let g = Gen.expander (Rng.create 4) 128 in
  let d = Netdecomp.strong g in
  let clustering = Decomposition.clustering d in
  let color0_nodes =
    List.fold_left
      (fun acc c -> acc + List.length (Clustering.members clustering c))
      0
      (Decomposition.clusters_of_color d 0)
  in
  check bool "first color >= half" true (2 * color0_nodes >= 128)

let test_thm34_diameter_no_worse_than_thm23_shape () =
  (* on a deep structure Thm 3.4's clusters should not be wildly larger *)
  let g = Gen.grid 16 16 in
  let d23 = Netdecomp.strong g in
  let d34 = Netdecomp.strong_improved g in
  let diam d = Clustering.max_strong_diameter (Decomposition.clustering d) in
  check bool "both valid" true (diam d23 >= 0 && diam d34 >= 0)

(* ------------------------------------------------------------------ *)
(* Edge carving                                                         *)
(* ------------------------------------------------------------------ *)

let test_netdecomp_custom_epsilon () =
  (* any eps in (0,1) yields a valid decomposition; smaller eps means more
     colors with smaller per-color coverage *)
  let g = Gen.grid 9 9 in
  List.iter
    (fun epsilon ->
      let d = Netdecomp.of_carver ~epsilon (Carve.carve ()) g in
      fail_on_error (Decomposition.check d))
    [ 0.75; 0.5; 0.3 ]

let test_edge_carving_domain () =
  let g = Gen.grid 8 8 in
  let domain = Array.of_list (List.filter (fun v -> v mod 8 < 5) (Graph.nodes g)) in
  let r = EdgeC.carve ~domain g ~epsilon:0.25 in
  for v = 0 to 63 do
    if v mod 8 >= 5 then
      check int "outside unclustered" (-1)
        (Clustering.cluster_of r.EdgeC.clustering v)
  done;
  check int "inside all clustered" (Array.length domain)
    (Clustering.clustered_count r.EdgeC.clustering)

let test_edge_carving_families () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let r = EdgeC.carve g ~epsilon:0.25 in
      fail_on_error (EdgeC.check r ~epsilon:0.25 g))
    (workload 51)

let test_edge_carving_epsilons () =
  let g = Gen.grid 10 10 in
  List.iter
    (fun epsilon ->
      let r = EdgeC.carve g ~epsilon in
      fail_on_error (EdgeC.check r ~epsilon g))
    [ 0.5; 0.25; 0.125 ]

let test_edge_carving_all_nodes_clustered () =
  let g = Gen.expander (Rng.create 2) 64 in
  let r = EdgeC.carve g ~epsilon:0.25 in
  check int "every node clustered" 64 (Clustering.clustered_count r.clustering)

let test_edge_carving_tree_cuts_little () =
  (* on a path, ball growth reaches boundary <= eps quickly *)
  let g = Gen.path 100 in
  let r = EdgeC.carve g ~epsilon:0.5 in
  check bool "few cut edges" true
    (List.length r.EdgeC.cut_edges <= Graph.m g / 2)

(* ------------------------------------------------------------------ *)
(* Barrier                                                              *)
(* ------------------------------------------------------------------ *)

let test_barrier_build_shape () =
  let g = Barrier.build (Rng.create 5) ~target_n:400 in
  check bool "connected" true (Components.is_connected g);
  check bool "about the right size" true
    (Graph.n g >= 150 && Graph.n g <= 1200);
  check bool "subdivision keeps degree <= 4" true (Graph.max_degree g <= 4)

let test_barrier_analysis_pays () =
  (* on the barrier graph, either branch of Lemma 3.1 must be expensive:
     a component with diameter at the log^2 scale, or a chunky cut *)
  let g = Barrier.build (Rng.create 5) ~target_n:600 in
  let a = Barrier.analyze ~epsilon:0.5 g in
  (match a.Barrier.outcome with
  | `Component ->
      check bool
        (Printf.sprintf "component diameter %d at scale %.0f" a.u_diameter
           a.diameter_scale)
        true
        (float_of_int a.u_diameter >= 0.2 *. a.diameter_scale)
  | `Cut ->
      check bool "cut separator is chunky" true
        (float_of_int a.separator_size >= 0.2 *. a.separator_bound));
  check int "n recorded" (Graph.n g) a.Barrier.n

let test_grid_analysis_is_cheap () =
  (* contrast: on a grid, Lemma 3.1 finds either a thin cut or a small
     diameter component, far below the barrier scales *)
  let g = Gen.grid 24 24 in
  let a = Barrier.analyze ~epsilon:0.5 g in
  match a.Barrier.outcome with
  | `Cut ->
      check bool "thin separator" true
        (float_of_int a.separator_size <= a.separator_bound)
  | `Component ->
      check bool "small diameter" true
        (float_of_int a.u_diameter <= a.diameter_scale)

(* ------------------------------------------------------------------ *)
(* Property tests                                                       *)
(* ------------------------------------------------------------------ *)

let arb_connected =
  QCheck.make
    ~print:(fun (seed, n, pct) -> Printf.sprintf "seed=%d n=%d p=%d%%" seed n pct)
    QCheck.Gen.(triple (int_bound 100_000) (int_range 2 48) (int_range 3 25))

let connected_graph (seed, n, pct) =
  let rng = Rng.create seed in
  Gen.ensure_connected rng (Gen.erdos_renyi rng n (float_of_int pct /. 100.0))

let prop_sparse_cut_valid =
  QCheck.Test.make ~name:"lemma 3.1 outcome is always valid" ~count:80
    arb_connected (fun input ->
      let g = connected_graph input in
      let n = Graph.n g in
      match SC.run ~epsilon:0.5 (SC.scratch ()) g ~domain:(all n) with
      | SC.Cut { v1; v2; removed } ->
          let v1 = Array.to_list v1 and v2 = Array.to_list v2 in
          let removed = Array.to_list removed in
          let m1 = Mask.of_list n v1 in
          List.length v1 + List.length v2 + List.length removed = n
          && 3 * List.length v1 >= n
          && 3 * List.length v2 >= n
          && List.for_all
               (fun v ->
                 Array.for_all
                   (fun w -> not (Mask.mem m1 w))
                   (Graph.neighbors g v))
               v2
      | SC.Component { u; boundary } ->
          let u = Array.to_list u and boundary = Array.to_list boundary in
          3 * List.length u >= n
          && Bfs.diameter_of_set g u >= 0
          && List.sort compare boundary
             = Metrics.node_boundary g (Mask.of_list n u))

let prop_thm22_valid =
  QCheck.Test.make ~name:"theorem 2.2 carving is a valid strong carving"
    ~count:50 arb_connected (fun input ->
      let g = connected_graph input in
      let carving, _ = carve g ~epsilon:0.5 in
      is_ok (Carving.check_strong ~epsilon:0.5 carving))

let prop_thm33_valid =
  QCheck.Test.make ~name:"theorem 3.3 carving is a valid strong carving"
    ~count:30 arb_connected (fun input ->
      let g = connected_graph input in
      let carving, _ = carve_improved g ~epsilon:0.5 in
      is_ok (Carving.check_strong ~epsilon:0.5 carving))

let prop_thm23_valid =
  QCheck.Test.make ~name:"theorem 2.3 decomposition is valid" ~count:30
    arb_connected (fun input ->
      let g = connected_graph input in
      let d = Netdecomp.strong g in
      is_ok (Decomposition.check ~colors_bound:(color_bound (Graph.n g)) d)
      && Clustering.max_strong_diameter (Decomposition.clustering d) >= 0)

let prop_edge_carving_valid =
  QCheck.Test.make ~name:"edge carving is valid" ~count:60 arb_connected
    (fun input ->
      let g = connected_graph input in
      let r = EdgeC.carve g ~epsilon:0.25 in
      is_ok (EdgeC.check r ~epsilon:0.25 g))

(* The domain-local transformation against the Mask-based one it
   replaced (test/transform_ref.ml): same labels, stats and Cost
   breakdown for strong_carve and strong_carve_unknown_n, on ER, RMAT
   and scrambled grids, with random domains carved in a row, through the
   engine presets (one scratch per side) or Linial-Saks (one equally
   seeded generator per side); and the same Theorem 2.3 labels and
   colors. *)
let labels g (c : Carving.t) =
  Array.init (Graph.n g) (Clustering.cluster_of c.Carving.clustering)

(* the labels of a carver's clusters, numbered as a carving numbers them *)
let cluster_labels g clusters =
  labels g (Carving.of_clusters g ~domain:(Mask.full (Graph.n g)) clusters)

let same_cost a b =
  Congest.Cost.breakdown a = Congest.Cost.breakdown b
  && Congest.Cost.rounds a = Congest.Cost.rounds b
  && Congest.Cost.messages a = Congest.Cost.messages b
  && Congest.Cost.max_message_bits a = Congest.Cost.max_message_bits b

let protect f = try Ok (f ()) with Failure m -> Error m

(* A scripted weak carver on a path, whose clusters are disconnected and
   interleave: in each domain every third node dies and the surviving
   pairs go alternately to two clusters. Case I must hand the next level
   its components in the reference's order (by smallest node), which
   decides the order of the weak calls; both sides log them. *)
let scripted_clusters domain =
  let a = ref [] and b = ref [] in
  Array.iteri
    (fun k v ->
      if k mod 3 <> 2 then
        if k / 3 mod 2 = 0 then a := v :: !a else b := v :: !b)
    domain;
  List.filter_map
    (function [] -> None | l -> Some (Array.of_list (List.rev l)))
    [ !a; !b ]
  |> List.sort (fun x y -> Int.compare x.(0) y.(0))
  |> Array.of_list

let test_transform_component_order () =
  let g = Gen.path 60 in
  let log_new = ref [] and log_ref = ref [] in
  let weak : Transform.weak_carver =
   fun ?cost:_ _ ~domain ~epsilon:_ ->
    log_new := Array.to_list domain :: !log_new;
    let clusters = scripted_clusters domain in
    {
      Transform.clusters;
      roots = Array.map (fun c -> c.(0)) clusters;
      depth = 1;
      congestion = 1;
    }
  in
  let weak_ref : Transform_ref.weak_carver =
   fun ?cost:_ g ~domain ~epsilon:_ ->
    let domain = Mask.to_array domain in
    log_ref := Array.to_list domain :: !log_ref;
    let clusters = scripted_clusters domain in
    let cluster_of = Array.make (Graph.n g) (-1) in
    Array.iteri (fun c -> Array.iter (fun v -> cluster_of.(v) <- c)) clusters;
    {
      Transform_ref.clustering = Clustering.make g ~cluster_of;
      forest =
        Array.map
          (fun c ->
            { Cluster.Steiner.root = c.(0); parent = [ (c.(0), c.(0)) ] })
          clusters;
      depth = 1;
      congestion = 1;
    }
  in
  let a, _ = Transform.strong_carve ~weak g ~domain:(all 60) ~epsilon:0.5 in
  let b, _ = Transform_ref.strong_carve ~weak:weak_ref g ~epsilon:0.5 in
  check bool "same labels" true (cluster_labels g a = labels g b);
  check bool "several calls" true (List.length !log_new > 3);
  check bool "same weak calls, same order" true (!log_new = !log_ref)

(* the per-ball carving equals the whole-graph-pass reference: labels,
   cut edges in order, max radius and the charged cost *)
let prop_edge_carving_matches_reference =
  QCheck.Test.make ~name:"edge carving equals the reference" ~count:150
    (QCheck.make
       ~print:(fun (seed, family) ->
         Printf.sprintf "seed=%d family=%d" seed family)
       QCheck.Gen.(pair (int_bound 1_000_000) (int_range 0 2)))
    (fun (seed, family) ->
      let rng = Rng.create seed in
      let g = Random_graph.make rng family in
      let n = Graph.n g in
      let epsilon = 0.05 +. Rng.float rng 0.9 in
      let domain =
        if Rng.bool rng then None
        else
          let keep = 0.3 +. Rng.float rng 0.7 in
          Some
            (Array.of_list
               (List.filter (fun _ -> Rng.float rng 1.0 < keep) (Graph.nodes g)))
      in
      let ca = Congest.Cost.create () and cb = Congest.Cost.create () in
      let a = EdgeC.carve ~cost:ca ?domain g ~epsilon in
      let b = Edge_carving_ref.carve ~cost:cb ?domain g ~epsilon in
      Array.init n (Clustering.cluster_of a.EdgeC.clustering)
      = Array.init n (Clustering.cluster_of b.EdgeC.clustering)
      && a.EdgeC.cut_edges = b.EdgeC.cut_edges
      && a.EdgeC.max_radius = b.EdgeC.max_radius
      && Congest.Cost.rounds ca = Congest.Cost.rounds cb
      && Congest.Cost.messages ca = Congest.Cost.messages cb
      && Congest.Cost.max_message_bits ca = Congest.Cost.max_message_bits cb)

let prop_transform_matches_reference =
  QCheck.Test.make ~name:"domain-local transform equals the reference"
    ~count:120
    (QCheck.make
       ~print:(fun (seed, family, carver, calls) ->
         Printf.sprintf "seed=%d family=%d carver=%d calls=%d" seed family
           carver calls)
       QCheck.Gen.(
         quad (int_bound 1_000_000) (int_range 0 2) (int_range 0 3)
           (int_range 1 3)))
    (fun (seed, family, carver, calls) ->
      let rng = Rng.create seed in
      let g = Random_graph.make rng family in
      let n = Graph.n g in
      let presets = Weakdiam.Weak_carving.[| Rg20; Ggr21; Hybrid |] in
      let weak, weak_ref =
        if carver < 3 then
          ( Carve.weak_of_preset presets.(carver),
            Transform_ref.engine_weak presets.(carver) )
        else
          ( Baseline.Linial_saks.weak_carver (Rng.create seed),
            Transform_ref.ls_weak (Rng.create seed) )
      in
      let same_call () =
        let epsilon =
          match Rng.int rng 3 with
          | 0 -> 0.5
          | 1 -> 0.1
          | _ -> 0.05 +. Rng.float rng 0.9
        in
        let domain =
          if Rng.bool rng then None
          else
            let keep = 0.3 +. Rng.float rng 0.7 in
            Some
              (Mask.of_list n
                 (List.filter (fun _ -> Rng.float rng 1.0 < keep) (Graph.nodes g)))
        in
        (* the reference takes the domain as a mask *)
        let domain_ref = domain in
        let domain =
          match domain with None -> all n | Some d -> Mask.to_array d
        in
        let ca = Congest.Cost.create () and cb = Congest.Cost.create () in
        let a =
          protect (fun () ->
              let c, st =
                Transform.strong_carve ~cost:ca ~weak g ~domain ~epsilon
              in
              (cluster_labels g c, st.Transform.iterations,
               st.weak_invocations, st.max_ball_radius))
        in
        let b =
          protect (fun () ->
              let c, st =
                Transform_ref.strong_carve ~cost:cb ~weak:weak_ref
                  ?domain:domain_ref g ~epsilon
              in
              (labels g c, st.Transform_ref.iterations, st.weak_invocations,
               st.max_ball_radius))
        in
        let ua = Congest.Cost.create () and ub = Congest.Cost.create () in
        let a' =
          protect (fun () ->
              cluster_labels g
                (Transform.strong_carve_unknown_n ~cost:ua ~weak g ~domain
                   ~epsilon))
        in
        let b' =
          protect (fun () ->
              labels g
                (Transform_ref.strong_carve_unknown_n ~cost:ub ~weak:weak_ref
                   ?domain:domain_ref g ~epsilon))
        in
        a = b && same_cost ca cb && a' = b' && same_cost ua ub
      in
      let carves = List.for_all (fun _ -> same_call ()) (List.init calls Fun.id) in
      let decomposition =
        carver = 3
        ||
        let preset = presets.(carver) in
        let d = Netdecomp.strong ~preset g in
        let scratch = Weakdiam.Weak_carving.scratch () in
        let weak = Transform_ref.engine_weak ~scratch preset in
        let r =
          Netdecomp.of_carver
            (fun ?cost g ~domain ~epsilon ->
              let domain = Mask.of_list n (Array.to_list domain) in
              let c, _ =
                Transform_ref.strong_carve ?cost ~weak ~domain g ~epsilon
              in
              Array.of_list
                (List.map Array.of_list
                   (Clustering.clusters c.Carving.clustering)))
            g
        in
        let of_dec d =
          Array.init n (fun v ->
              ( Clustering.cluster_of (Decomposition.clustering d) v,
                Decomposition.color_of_node d v ))
        in
        of_dec d = of_dec r
      in
      carves && decomposition)

let () =
  Alcotest.run "core"
    [
      ( "sparse_cut",
        [
          Alcotest.test_case "families" `Quick test_sparse_cut_families;
          Alcotest.test_case "epsilons" `Quick test_sparse_cut_epsilons;
          Alcotest.test_case "singleton" `Quick test_sparse_cut_singleton;
          Alcotest.test_case "long path -> cut" `Quick
            test_sparse_cut_long_path_returns_cut;
          Alcotest.test_case "clique -> component" `Quick
            test_sparse_cut_clique_returns_component;
          Alcotest.test_case "rejects disconnected" `Quick
            test_sparse_cut_rejects_disconnected;
          Alcotest.test_case "rejects empty" `Quick test_sparse_cut_rejects_empty;
          Alcotest.test_case "charges cost" `Quick test_sparse_cut_charges_cost;
          Alcotest.test_case "window monotone" `Quick
            test_sparse_cut_window_monotone;
        ] );
      ( "thm22",
        [
          Alcotest.test_case "families" `Quick test_thm22_families;
          Alcotest.test_case "rg20 preset" `Quick test_thm22_rg20_preset;
          Alcotest.test_case "epsilon sweep" `Quick test_thm22_epsilon_sweep;
          Alcotest.test_case "iterations log" `Quick
            test_thm22_iterations_logarithmic;
          Alcotest.test_case "ball radius bound" `Quick
            test_thm22_ball_radius_bound;
          Alcotest.test_case "dead fraction" `Quick
            test_thm22_dead_fraction_tight_epsilon;
          Alcotest.test_case "domain restriction" `Quick
            test_thm22_domain_restriction;
          Alcotest.test_case "deterministic" `Quick test_thm22_deterministic;
          Alcotest.test_case "message size" `Quick test_thm22_message_size_small;
          Alcotest.test_case "domain size mismatch" `Quick
            test_thm22_domain_size_mismatch;
          Alcotest.test_case "component order" `Quick
            test_transform_component_order;
        ] );
      ( "unknown_n",
        [
          Alcotest.test_case "families" `Quick test_unknown_n_families;
          Alcotest.test_case "contract across eps" `Quick
            test_unknown_n_matches_known_n_contract;
          Alcotest.test_case "domain" `Quick test_unknown_n_domain;
        ] );
      ( "thm33",
        [
          Alcotest.test_case "families" `Quick test_thm33_families;
          Alcotest.test_case "levels log" `Quick test_thm33_levels_logarithmic;
          Alcotest.test_case "domain restriction" `Quick
            test_thm33_domain_restriction;
          Alcotest.test_case "stats consistent" `Quick test_thm33_stats_consistent;
        ] );
      ( "transform_distributed",
        [
          Alcotest.test_case "matches centralized" `Quick
            test_transform_distributed_matches;
          Alcotest.test_case "valid strong carving" `Quick
            test_transform_distributed_valid;
          Alcotest.test_case "epsilons" `Quick test_transform_distributed_epsilons;
          Alcotest.test_case "rg20 preset" `Quick
            test_transform_distributed_rg20_preset;
          Alcotest.test_case "grid 32x32 counts" `Quick
            test_transform_distributed_grid32_counts;
          Alcotest.test_case "level rounds compose" `Quick
            test_transform_distributed_level_rounds;
          Alcotest.test_case "traced run" `Quick
            test_transform_distributed_traced;
        ] );
      ( "decomposition",
        [
          Alcotest.test_case "thm 2.3 families" `Quick test_thm23_families;
          Alcotest.test_case "thm 3.4 families" `Quick test_thm34_families;
          Alcotest.test_case "weak families" `Quick
            test_weak_decomposition_families;
          Alcotest.test_case "covers all nodes" `Quick
            test_decomposition_covers_all_nodes;
          Alcotest.test_case "disconnected graph" `Quick
            test_decomposition_disconnected_graph;
          Alcotest.test_case "first color halves" `Quick
            test_decomposition_color_sizes_halve;
          Alcotest.test_case "3.4 vs 2.3" `Quick
            test_thm34_diameter_no_worse_than_thm23_shape;
          Alcotest.test_case "custom epsilon" `Quick
            test_netdecomp_custom_epsilon;
        ] );
      ( "edge_carving",
        [
          Alcotest.test_case "families" `Quick test_edge_carving_families;
          Alcotest.test_case "epsilons" `Quick test_edge_carving_epsilons;
          Alcotest.test_case "domain" `Quick test_edge_carving_domain;
          Alcotest.test_case "all clustered" `Quick
            test_edge_carving_all_nodes_clustered;
          Alcotest.test_case "path cuts little" `Quick
            test_edge_carving_tree_cuts_little;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "build shape" `Quick test_barrier_build_shape;
          Alcotest.test_case "barrier pays" `Quick test_barrier_analysis_pays;
          Alcotest.test_case "grid is cheap" `Quick test_grid_analysis_is_cheap;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sparse_cut_valid;
            prop_transform_distributed;
            prop_transform_matches_reference;
            prop_thm22_valid;
            prop_thm33_valid;
            prop_thm23_valid;
            prop_edge_carving_valid;
            prop_edge_carving_matches_reference;
          ] );
    ]
