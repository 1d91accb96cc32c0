open Dsgraph
module WC = Weakdiam.Weak_carving
module Clustering = Cluster.Clustering
module Carving = Cluster.Carving
module Steiner = Cluster.Steiner
module Cost = Congest.Cost

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let is_ok = function Ok () -> true | Error _ -> false

let log2i n =
  let rec go acc k = if k >= n then acc else go (acc + 1) (2 * k) in
  go 0 1

(* Each tree lists its (node, parent) pairs in strictly ascending node
   order. *)
let forest_in_node_order (forest : Steiner.forest) =
  let rec ascending = function
    | (u, _) :: ((v, _) :: _ as rest) -> u < v && ascending rest
    | _ -> true
  in
  Array.for_all (fun t -> ascending t.Steiner.parent) forest

(* Full validation of a weak carving result against the contract of the
   black box [A] in Theorem 2.1. *)
let validate ?(preset = WC.Ggr21) ~epsilon g =
  let result = WC.carve ~preset g ~epsilon in
  check bool "forest in node order" true (forest_in_node_order result.forest);
  let b = Congest.Bits.id_bits ~n:(Graph.n g) in
  (* 1. clusters non-adjacent, dead fraction <= epsilon, valid trees *)
  let checked =
    Carving.check_weak ~epsilon ~steiner:result.forest
      ~congestion_bound:(b + 1) result.carving
  in
  (match checked with
  | Ok () -> ()
  | Error e -> Alcotest.failf "carving invalid: %s" e);
  result

let workload seed =
  let rng = Rng.create seed in
  [
    ("path", Gen.path 60);
    ("cycle", Gen.cycle 48);
    ("grid", Gen.grid 8 8);
    ("tree", Gen.random_tree (Rng.split rng) 70);
    ("er", Gen.ensure_connected rng (Gen.erdos_renyi (Rng.split rng) 64 0.06));
    ("hypercube", Gen.hypercube 6);
    ("ring of cliques", Gen.ring_of_cliques 6 6);
    ("expander", Gen.expander (Rng.split rng) 64);
  ]

let test_contract_all_families preset () =
  List.iter
    (fun (name, g) ->
      let r = validate ~preset ~epsilon:0.5 g in
      check bool (name ^ ": some node clustered") true
        (Clustering.clustered_count (Carving.(r.carving.clustering)) > 0))
    (workload 1)

let test_epsilon_sweep preset () =
  let g = Gen.grid 10 10 in
  List.iter
    (fun epsilon -> ignore (validate ~preset ~epsilon g))
    [ 0.5; 0.25; 0.125 ]

let test_all_alive_nodes_clustered () =
  (* every domain node is either dead or in a cluster; clusters partition *)
  let g = Gen.grid 7 7 in
  let r = WC.carve g ~epsilon:0.5 in
  let clustering = r.carving.Carving.clustering in
  let dead = Carving.dead r.carving in
  check int "dead + clustered = n" (Graph.n g)
    (List.length dead + Clustering.clustered_count clustering)

let test_clusters_cover_components () =
  (* adjacent alive nodes always end with the same label: each alive
     component lies inside one cluster *)
  let g = Gen.expander (Rng.create 5) 64 in
  let r = WC.carve g ~epsilon:0.5 in
  let clustering = r.carving.Carving.clustering in
  let alive =
    Mask.of_list (Graph.n g)
      (List.filter (fun v -> Clustering.cluster_of clustering v >= 0)
         (Graph.nodes g))
  in
  List.iter
    (fun comp ->
      match comp with
      | [] -> ()
      | v :: rest ->
          let c = Clustering.cluster_of clustering v in
          List.iter
            (fun u -> check int "same cluster" c (Clustering.cluster_of clustering u))
            rest)
    (Components.components ~mask:alive g)

let test_deterministic () =
  let g = Gen.erdos_renyi (Rng.create 7) 50 0.08 in
  let r1 = WC.carve g ~epsilon:0.5 in
  let r2 = WC.carve g ~epsilon:0.5 in
  let c1 = r1.carving.Carving.clustering and c2 = r2.carving.Carving.clustering in
  check int "same cluster count" (Clustering.num_clusters c1)
    (Clustering.num_clusters c2);
  for v = 0 to Graph.n g - 1 do
    check int "same assignment" (Clustering.cluster_of c1 v)
      (Clustering.cluster_of c2 v)
  done

let test_depth_bound_rg20 () =
  (* RG20 worst-case Steiner depth is O(log^3 n / eps); check a generous
     concrete constant on the workload suite *)
  List.iter
    (fun (name, g) ->
      let epsilon = 0.5 in
      let r = WC.carve ~preset:WC.Rg20 g ~epsilon in
      let b = log2i (Graph.n g) in
      let bound =
        int_of_float (float_of_int (4 * b * b * b) /. epsilon) + (4 * b) + 8
      in
      let measured =
        Array.fold_left (fun acc t -> max acc (Steiner.depth t)) 0 r.forest
      in
      check bool
        (Printf.sprintf "%s: depth %d within O(log^3/eps) bound %d" name
           measured bound)
        true (measured <= bound))
    (workload 2)

let test_depth_ggr21_not_worse_than_rg20_shape () =
  (* on long paths the GGR21 preset should produce clearly shallower trees *)
  let g = Gen.path 200 in
  let rg = WC.carve ~preset:WC.Rg20 g ~epsilon:0.5 in
  let gg = WC.carve ~preset:WC.Ggr21 g ~epsilon:0.5 in
  check bool "both bounded" true (rg.max_depth >= 0 && gg.max_depth >= 0);
  check bool "ggr21 within rg20 * 2" true (gg.max_depth <= (2 * rg.max_depth) + 8)

let test_congestion_bound () =
  (* each node joins a given cluster's tree at most once per phase, so an
     edge serves at most b+1 trees *)
  List.iter
    (fun (name, g) ->
      let r = WC.carve g ~epsilon:0.5 in
      let b = Congest.Bits.id_bits ~n:(Graph.n g) in
      check bool
        (Printf.sprintf "%s: congestion %d <= %d" name r.congestion (b + 1))
        true
        (r.congestion <= b + 1))
    (workload 3)

let test_cost_meter_charged () =
  let cost = Cost.create () in
  let g = Gen.grid 8 8 in
  ignore (WC.carve ~cost g ~epsilon:0.5);
  check bool "rounds charged" true (Cost.rounds cost > 0);
  check bool "messages charged" true (Cost.messages cost > 0);
  (* messages stay small: 2 * id bits *)
  check bool "message size O(log n)" true
    (Cost.max_message_bits cost <= 2 * Congest.Bits.id_bits ~n:64)

let test_domain_restriction () =
  let g = Gen.grid 6 6 in
  (* carve only the left half *)
  let domain =
    Mask.of_list (Graph.n g)
      (List.filter (fun v -> v mod 6 < 3) (Graph.nodes g))
  in
  let r = WC.carve ~domain g ~epsilon:0.5 in
  let clustering = r.carving.Carving.clustering in
  for v = 0 to Graph.n g - 1 do
    if not (Mask.mem domain v) then
      check int "outside domain unclustered" (-1)
        (Clustering.cluster_of clustering v)
  done;
  check bool "inside clustered" true (Clustering.clustered_count clustering > 0)

let test_epsilon_validation () =
  let g = Gen.path 4 in
  Alcotest.check_raises "eps 0"
    (Invalid_argument "Weak_carving.carve: epsilon must be in (0, 1)")
    (fun () -> ignore (WC.carve g ~epsilon:0.0));
  Alcotest.check_raises "eps 1"
    (Invalid_argument "Weak_carving.carve: epsilon must be in (0, 1)")
    (fun () -> ignore (WC.carve g ~epsilon:1.0))

let test_domain_size_mismatch () =
  let g = Gen.grid 6 6 in
  Alcotest.check_raises "short mask"
    (Invalid_argument
       "Weak_carving.carve: domain mask has size 10, graph has 36 nodes")
    (fun () -> ignore (WC.carve ~domain:(Mask.full 10) g ~epsilon:0.5));
  Alcotest.check_raises "long mask"
    (Invalid_argument
       "Weak_carving.carve: domain mask has size 40, graph has 36 nodes")
    (fun () -> ignore (WC.carve ~domain:(Mask.full 40) g ~epsilon:0.5))

let test_scratch_reuse_across_graphs () =
  (* one scratch through a small graph, a larger one and the small one
     again: every call equals a fresh-scratch call *)
  let scratch = WC.scratch () in
  let small = Gen.grid 5 5 and large = Gen.erdos_renyi (Rng.create 3) 90 0.05 in
  List.iter
    (fun g ->
      let shared = WC.carve ~scratch g ~epsilon:0.3 in
      let fresh = WC.carve g ~epsilon:0.3 in
      for v = 0 to Graph.n g - 1 do
        check int "same cluster"
          (Clustering.cluster_of fresh.carving.Carving.clustering v)
          (Clustering.cluster_of shared.carving.Carving.clustering v)
      done;
      check bool "same forest" true (shared.forest = fresh.forest))
    [ small; large; small ]

let test_singleton_graph () =
  let g = Graph.of_edge_seq ~n:1 Seq.empty in
  let r = WC.carve g ~epsilon:0.5 in
  let clustering = r.carving.Carving.clustering in
  check int "one cluster" 1 (Clustering.num_clusters clustering);
  check int "no dead" 0 (List.length (Carving.dead r.carving))

let test_two_isolated_nodes () =
  let g = Graph.of_edge_seq ~n:2 Seq.empty in
  let r = WC.carve g ~epsilon:0.5 in
  check int "two clusters" 2
    (Clustering.num_clusters r.carving.Carving.clustering)

let test_complete_graph_one_cluster () =
  (* on a clique everything merges into a single cluster or dies; with
     eps=0.5 at most half may die, so a big cluster must exist *)
  let g = Gen.complete 16 in
  let r = WC.carve g ~epsilon:0.5 in
  let clustering = r.carving.Carving.clustering in
  check bool "non adjacent" true (Clustering.non_adjacent clustering);
  (* all alive nodes in one cluster (clique = adjacent) *)
  check bool "at most one cluster" true (Clustering.num_clusters clustering <= 1)

(* ------------------------------------------------------------------ *)
(* The genuinely distributed execution (Congest.Sim node program)       *)
(* ------------------------------------------------------------------ *)

module Dist = Weakdiam.Distributed

let small_workload seed =
  let rng = Rng.create seed in
  [
    ("path", Gen.path 20);
    ("cycle", Gen.cycle 16);
    ("grid", Gen.grid 5 5);
    ("er", Gen.ensure_connected rng (Gen.erdos_renyi (Rng.split rng) 28 0.12));
    ("clique", Gen.complete 9);
    ("star", Gen.star 12);
    ("tree", Gen.random_tree (Rng.split rng) 24);
  ]

let test_distributed_matches_engine preset () =
  List.iter
    (fun (name, g) ->
      let r = Dist.carve ~preset g ~epsilon:0.5 in
      check bool (name ^ ": simulation equals engine") true
        (Dist.matches_engine r);
      check bool (name ^ ": halted") true r.Dist.sim_stats.Congest.Sim.all_halted)
    (small_workload 5)

let test_distributed_small_messages () =
  let g = Gen.grid 6 6 in
  let r = Dist.carve g ~epsilon:0.5 in
  check bool "messages fit CONGEST bandwidth" true
    (r.Dist.sim_stats.Congest.Sim.max_bits_seen
    <= Congest.Bits.bandwidth ~n:36);
  check bool "still matches" true (Dist.matches_engine r)

let test_distributed_epsilon_sweep () =
  let g = Gen.grid 5 5 in
  List.iter
    (fun epsilon ->
      let r = Dist.carve g ~epsilon in
      check bool "matches engine" true (Dist.matches_engine r))
    [ 0.5; 0.25 ]

let test_distributed_rounds_within_schedule () =
  let g = Gen.path 24 in
  let r = Dist.carve g ~epsilon:0.5 in
  check bool "rounds within schedule budget" true
    (r.Dist.sim_stats.Congest.Sim.rounds_used
    <= ((r.Dist.total_steps + 6) * r.Dist.step_budget))

(* The node program packs its messages into ints and keeps its state in
   flat arrays, so a run allocates a few words per message: node set-up,
   the engine run, proposal and child lists, and buffers growing to their
   peak. On the 16x16 grid (21,001 messages) the whole [carve] measured
   2.9 minor words per message; the Hashtbl program the flat one
   replaced, 40.4 (on its 27,753 messages). *)
let test_distributed_minor_words () =
  let g = Gen.grid 16 16 in
  ignore (Dist.carve g ~epsilon:0.5);
  Gc.minor ();
  let before = Gc.minor_words () in
  let r = Dist.carve g ~epsilon:0.5 in
  let words = Gc.minor_words () -. before in
  let messages = r.Dist.sim_stats.Congest.Sim.total_messages in
  check int "messages" 21_001 messages;
  let per_message = words /. float_of_int messages in
  if per_message > 5.0 then
    Alcotest.failf "%.0f minor words for %d messages: %.2f a message, over 5"
      words messages per_message

(* A node passes a wake hint whenever it has nothing queued, also in
   the call whose drain empties its queue, so the 16x16 grid runs its
   3,432 rounds (878,592 node-rounds) in 32,695 calls of
   [program.round]. *)
let test_distributed_round_calls () =
  let calls = ref 0 in
  let counting =
    {
      Congest.Conformance.instrument =
        (fun p ->
          {
            p with
            Congest.Sim.round =
              (fun ~node ~state ~inbox ~out ->
                incr calls;
                p.Congest.Sim.round ~node ~state ~inbox ~out);
          });
    }
  in
  let r = Dist.carve ~conformance:counting (Gen.grid 16 16) ~epsilon:0.5 in
  check int "rounds" 3_432 r.Dist.sim_stats.Congest.Sim.rounds_used;
  check int "program.round calls" 32_695 !calls

let prop_distributed_matches_engine =
  QCheck.Test.make
    ~name:"distributed weak carving equals the step-granular engine" ~count:45
    (QCheck.make
       ~print:(fun (seed, n, pct) ->
         Printf.sprintf "seed=%d n=%d p=%d%%" seed n pct)
       QCheck.Gen.(triple (int_bound 50_000) (int_range 2 30) (int_range 4 30)))
    (fun (seed, n, pct) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      let r = Dist.carve g ~epsilon:0.5 in
      Dist.matches_engine r)

(* ------------------------------------------------------------------ *)
(* Property tests                                                       *)
(* ------------------------------------------------------------------ *)

let arb =
  QCheck.make
    ~print:(fun (seed, n, pct, e) ->
      Printf.sprintf "seed=%d n=%d p=%d%% eps=%d/8" seed n pct e)
    QCheck.Gen.(
      quad (int_bound 100_000) (int_range 2 60) (int_range 0 30)
        (int_range 2 6))

let prop_contract preset name =
  QCheck.Test.make ~name ~count:70 arb (fun (seed, n, pct, e) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      let epsilon = float_of_int e /. 8.0 in
      let r = WC.carve ~preset g ~epsilon in
      let b = Congest.Bits.id_bits ~n in
      is_ok
        (Carving.check_weak ~epsilon ~steiner:r.forest ~congestion_bound:(b + 1)
           r.carving))

let prop_rg20 = prop_contract WC.Rg20 "rg20 carving meets the weak contract"

let prop_ggr21 =
  prop_contract WC.Ggr21 "ggr21 carving meets the weak contract"

let prop_hybrid =
  prop_contract WC.Hybrid "hybrid carving meets the weak contract"

let prop_hybrid_kills_at_most_rg20_budget =
  (* the hybrid threshold is the min of the two, so a stopping cluster
     kills strictly less than the RG20 threshold: the dead fraction obeys
     the RG20 worst-case proof *)
  QCheck.Test.make ~name:"hybrid dead fraction within rg20 budget" ~count:70
    arb (fun (seed, n, pct, e) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      let epsilon = float_of_int e /. 8.0 in
      let r = WC.carve ~preset:WC.Hybrid g ~epsilon in
      Cluster.Carving.dead_fraction r.WC.carving <= epsilon +. 1e-9)

let prop_alive_components_in_one_cluster =
  QCheck.Test.make ~name:"alive components lie inside single clusters"
    ~count:70 arb (fun (seed, n, pct, e) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      let epsilon = float_of_int e /. 8.0 in
      let r = WC.carve g ~epsilon in
      let clustering = r.carving.Carving.clustering in
      let alive =
        Mask.of_list n
          (List.filter
             (fun v -> Clustering.cluster_of clustering v >= 0)
             (Graph.nodes g))
      in
      List.for_all
        (fun comp ->
          match comp with
          | [] -> true
          | v :: rest ->
              let c = Clustering.cluster_of clustering v in
              List.for_all (fun u -> Clustering.cluster_of clustering u = c) rest)
        (Components.components ~mask:alive g))

(* The flat engine against the Hashtbl engine it replaced
   (test/weak_carving_ref.ml): same clusters, schedule, (R, L), forest as
   sorted pairs and Cost breakdown, on random graphs and presets, with
   several random domains carved in a row through one scratch. *)
let equivalence_gen =
  QCheck.Gen.(
    quad (int_bound 1_000_000) (int_range 0 2) (int_range 0 2) (int_range 1 3))

let sorted_forest (forest : Steiner.forest) =
  Array.map
    (fun t -> (t.Steiner.root, List.sort compare t.Steiner.parent))
    forest

let same_run g (a : WC.result) (b : WC.result) ca cb =
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    if
      Clustering.cluster_of a.carving.Carving.clustering v
      <> Clustering.cluster_of b.carving.Carving.clustering v
    then ok := false
  done;
  !ok
  && Carving.dead a.carving = Carving.dead b.carving
  && a.steps = b.steps && a.phases = b.phases
  && a.steps_per_phase = b.steps_per_phase
  && a.max_depth = b.max_depth && a.congestion = b.congestion
  && sorted_forest a.forest = sorted_forest b.forest
  && Cost.breakdown ca = Cost.breakdown cb
  && Cost.rounds ca = Cost.rounds cb
  && Cost.messages ca = Cost.messages cb
  && Cost.max_message_bits ca = Cost.max_message_bits cb

let prop_flat_engine_matches_reference =
  QCheck.Test.make ~name:"flat engine equals the reference engine" ~count:150
    (QCheck.make
       ~print:(fun (seed, family, preset, calls) ->
         Printf.sprintf "seed=%d family=%d preset=%d calls=%d" seed family
           preset calls)
       equivalence_gen)
    (fun (seed, family, preset, calls) ->
      let rng = Rng.create seed in
      let g = Random_graph.make rng family in
      let n = Graph.n g in
      let preset = [| WC.Rg20; WC.Ggr21; WC.Hybrid |].(preset) in
      let scratch = WC.scratch () in
      List.for_all
        (fun call ->
          let epsilon =
            match Rng.int rng 4 with
            | 0 -> 0.5
            | 1 -> 0.1
            | 2 -> 0.0179
            | _ -> 0.01 +. Rng.float rng 0.9
          in
          let domain =
            if call = 0 && Rng.bool rng then None
            else
              let keep = 0.3 +. Rng.float rng 0.7 in
              Some
                (Mask.of_list n
                   (List.filter
                      (fun _ -> Rng.float rng 1.0 < keep)
                      (Graph.nodes g)))
          in
          let ca = Cost.create () and cb = Cost.create () in
          let a = WC.carve ~preset ~scratch ~cost:ca ?domain g ~epsilon in
          let b = Weak_carving_ref.carve ~preset ~cost:cb ?domain g ~epsilon in
          forest_in_node_order a.forest && same_run g a b ca cb)
        (List.init calls Fun.id))

(* No node ever re-enters a Steiner tree it left (DESIGN.md §5), so the
   reference's rejoin check never fires: all three presets, several
   random domains carved in a row through one scratch, the flat engine
   agreeing with the reference on every call, and its domain-local
   result with its whole-graph one. *)
let prop_reference_never_rejoins =
  QCheck.Test.make ~name:"reference engine never rejoins a tree" ~count:60
    (QCheck.make
       ~print:(fun (seed, family, calls) ->
         Printf.sprintf "seed=%d family=%d calls=%d" seed family calls)
       QCheck.Gen.(triple (int_bound 1_000_000) (int_range 0 2) (int_range 1 4)))
    (fun (seed, family, calls) ->
      let rng = Rng.create seed in
      let g = Random_graph.make rng family in
      let n = Graph.n g in
      List.for_all
        (fun preset ->
          let scratch = WC.scratch () in
          List.for_all
            (fun _ ->
              let epsilon = 0.01 +. Rng.float rng 0.9 in
              let domain =
                if Rng.bool rng then None
                else
                  Some
                    (Mask.of_list n
                       (List.filter (fun _ -> Rng.int rng 4 > 0) (Graph.nodes g)))
              in
              let before = !Weak_carving_ref.rejoins in
              let ca = Cost.create () and cb = Cost.create () in
              let a = WC.carve ~preset ~scratch ~cost:ca ?domain g ~epsilon in
              let b = Weak_carving_ref.carve ~preset ~cost:cb ?domain g ~epsilon in
              (* the local result, through the same scratch, is [a] *)
              let l =
                WC.carve_local ~preset ~scratch g
                  ~domain:(Mask.to_array a.carving.Carving.domain)
                  ~epsilon
              in
              let cl = a.carving.Carving.clustering in
              !Weak_carving_ref.rejoins = before
              && same_run g a b ca cb
              && l.WC.members
                 = Array.of_list (List.map Array.of_list (Clustering.clusters cl))
              && l.WC.roots = Array.map (fun t -> t.Steiner.root) a.forest
              && Array.to_list l.WC.dead = Carving.dead a.carving
              && l.WC.steps_per_phase = a.steps_per_phase
              && l.WC.max_depth = a.max_depth
              && l.WC.congestion = a.congestion)
            (List.init calls Fun.id))
        [ WC.Rg20; WC.Ggr21; WC.Hybrid ])

(* The wake hint of the node program is only a hint: run through
   [Hints.drop_hints], so every node is called every round, the
   simulation gives the same labels, stats and trace bytes. *)
let prop_wake_hint_transparent =
  QCheck.Test.make ~name:"weak carve: wake hints change no output" ~count:30
    (QCheck.make
       ~print:(fun (seed, family) ->
         Printf.sprintf "seed=%d family=%d" seed family)
       QCheck.Gen.(pair (int_bound 1_000_000) (int_range 0 4)))
    (fun (seed, family) ->
      let rng = Rng.create seed in
      let g =
        match family with
        | 0 ->
            let side = 8 + Rng.int rng 25 in
            Gen.grid side side
        | 1 | 2 | 3 -> Random_graph.make rng (family - 1)
        | _ -> Random_graph.make rng (Rng.int rng 3)
      in
      let domain =
        if family < 4 then None
        else
          Some
            (Mask.of_list (Graph.n g)
               (List.filter (fun _ -> Rng.int rng 4 > 0) (Graph.nodes g)))
      in
      let run conformance =
        let trace = Congest.Trace.sink () in
        let r = Dist.carve ?conformance ?domain ~trace g ~epsilon:0.5 in
        let labels =
          Array.init (Graph.n g)
            (Clustering.cluster_of r.Dist.carving.Carving.clustering)
        in
        (labels, r.Dist.sim_stats, Digest.string (Congest.Trace.to_jsonl trace))
      in
      let la, sa, ta = run None and lb, sb, tb = run (Some Hints.drop_hints) in
      la = lb && sa = sb && ta = tb)

(* The node program against the engine it replays, on grids, ER, RMAT
   and scrambled grids, random domains and all three presets.
   [program_case] draws one input; [small] keeps it to at most ~25
   nodes, since the reliable transport multiplies the rounds. *)
let program_case ~small (seed, family, preset) =
  let rng = Rng.create seed in
  let g =
    match family with
    | 0 ->
        let side = 2 + Rng.int rng (if small then 4 else 11) in
        Gen.grid side side
    | 1 when small ->
        Gen.erdos_renyi rng (2 + Rng.int rng 23) (0.05 +. Rng.float rng 0.2)
    | 2 when small -> Gen.rmat rng ~n:16 ~m:(16 * (1 + Rng.int rng 3))
    | 3 when small ->
        let side = 2 + Rng.int rng 4 in
        let perm = Rng.permutation rng (side * side) in
        Graph.of_edge_seq ~n:(side * side)
          (Seq.map
             (fun (u, v) -> (perm.(u), perm.(v)))
             (Graph.edges_seq (Gen.grid side side)))
    | f -> Random_graph.make rng (f - 1)
  in
  let n = Graph.n g in
  let domain =
    if Rng.bool rng then None
    else
      Some
        (Mask.of_list n (List.filter (fun _ -> Rng.int rng 4 > 0) (Graph.nodes g)))
  in
  let epsilon = if Rng.bool rng then 0.5 else 0.05 +. Rng.float rng 0.9 in
  (rng, g, [| WC.Rg20; WC.Ggr21; WC.Hybrid |].(preset), domain, epsilon)

let program_gen =
  QCheck.make
    ~print:(fun (seed, family, preset) ->
      Printf.sprintf "seed=%d family=%d preset=%d" seed family preset)
    QCheck.Gen.(triple (int_bound 1_000_000) (int_range 0 3) (int_range 0 2))

(* [carve], plain and under a conformance recorder: the labels and the
   Steiner trees equal the engine's, no invariant is violated and the
   rounds stay within the schedule *)
let prop_program_matches_engine =
  QCheck.Test.make ~name:"node program equals the engine" ~count:150
    program_gen (fun case ->
      let _, g, preset, domain, epsilon = program_case ~small:false case in
      List.for_all
        (fun instrumented ->
          let recorder = Congest.Conformance.recorder () in
          let conformance =
            if instrumented then
              Some (Congest.Conformance.instrumentor recorder g)
            else None
          in
          let r = Dist.carve ?conformance ~preset ?domain g ~epsilon in
          Dist.matches_engine r
          && Congest.Conformance.recorded recorder = []
          && r.sim_stats.Congest.Sim.rounds_used
             <= (r.total_steps + 6) * r.step_budget)
        [ false; true ])

(* [carve_reliable] under a seeded adversary (drops, duplicates, delays,
   sometimes a crash): with no node crashed the labels are fault-free
   [carve]'s, and every crashed node is labelled dead *)
let prop_reliable_matches_engine =
  QCheck.Test.make ~name:"reliable node program equals carve"
    ~count:25 program_gen (fun case ->
      let rng, g, preset, domain, epsilon = program_case ~small:true case in
      let n = Graph.n g in
      let spec =
        Congest.Fault.spec ~seed:(Rng.int rng 1_000_000)
          ~drop:(Rng.float rng 0.15) ~duplicate:(Rng.float rng 0.1)
          ~delay:(Rng.float rng 0.1) ~delay_window:(Rng.int rng 3)
          ~crashes:
            (if Rng.bool rng then [ (Rng.int rng n, 1 + Rng.int rng 200) ]
             else [])
          ()
      in
      let r =
        Dist.carve_reliable ~adversary:(Congest.Fault.create spec) ~preset
          ?domain g ~epsilon
      in
      if r.crashed = [] then
        let base = Dist.carve ~preset ?domain g ~epsilon in
        let sim = Clustering.make g ~cluster_of:r.cluster_of in
        List.for_all
          (fun v ->
            Clustering.cluster_of sim v
            = Clustering.cluster_of base.carving.Carving.clustering v)
          (Graph.nodes g)
      else List.for_all (fun v -> r.cluster_of.(v) = -2) r.crashed)

let () =
  Alcotest.run "weakdiam"
    [
      ( "contract",
        [
          Alcotest.test_case "all families (ggr21)" `Quick
            (test_contract_all_families WC.Ggr21);
          Alcotest.test_case "all families (rg20)" `Quick
            (test_contract_all_families WC.Rg20);
          Alcotest.test_case "all families (hybrid)" `Quick
            (test_contract_all_families WC.Hybrid);
          Alcotest.test_case "epsilon sweep (ggr21)" `Quick
            (test_epsilon_sweep WC.Ggr21);
          Alcotest.test_case "epsilon sweep (rg20)" `Quick
            (test_epsilon_sweep WC.Rg20);
          Alcotest.test_case "dead + clustered = n" `Quick
            test_all_alive_nodes_clustered;
          Alcotest.test_case "components in one cluster" `Quick
            test_clusters_cover_components;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "rg20 depth bound" `Quick test_depth_bound_rg20;
          Alcotest.test_case "ggr21 vs rg20 depth" `Quick
            test_depth_ggr21_not_worse_than_rg20_shape;
          Alcotest.test_case "congestion bound" `Quick test_congestion_bound;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "cost meter" `Quick test_cost_meter_charged;
          Alcotest.test_case "domain restriction" `Quick test_domain_restriction;
          Alcotest.test_case "epsilon validation" `Quick test_epsilon_validation;
          Alcotest.test_case "domain size mismatch" `Quick
            test_domain_size_mismatch;
          Alcotest.test_case "scratch reuse across graphs" `Quick
            test_scratch_reuse_across_graphs;
          Alcotest.test_case "singleton" `Quick test_singleton_graph;
          Alcotest.test_case "isolated nodes" `Quick test_two_isolated_nodes;
          Alcotest.test_case "complete graph" `Quick
            test_complete_graph_one_cluster;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "matches engine (ggr21)" `Quick
            (test_distributed_matches_engine Weakdiam.Weak_carving.Ggr21);
          Alcotest.test_case "matches engine (rg20)" `Quick
            (test_distributed_matches_engine Weakdiam.Weak_carving.Rg20);
          Alcotest.test_case "matches engine (hybrid)" `Quick
            (test_distributed_matches_engine Weakdiam.Weak_carving.Hybrid);
          Alcotest.test_case "small messages" `Quick
            test_distributed_small_messages;
          Alcotest.test_case "epsilon sweep" `Quick
            test_distributed_epsilon_sweep;
          Alcotest.test_case "rounds within schedule" `Quick
            test_distributed_rounds_within_schedule;
          Alcotest.test_case "minor words per message" `Quick
            test_distributed_minor_words;
          Alcotest.test_case "program.round calls" `Quick
            test_distributed_round_calls;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rg20;
            prop_ggr21;
            prop_hybrid;
            prop_hybrid_kills_at_most_rg20_budget;
            prop_alive_components_in_one_cluster;
            prop_distributed_matches_engine;
            prop_flat_engine_matches_reference;
            prop_reference_never_rejoins;
            prop_wake_hint_transparent;
            prop_program_matches_engine;
            prop_reliable_matches_engine;
          ] );
    ]
