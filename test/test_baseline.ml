open Dsgraph
module LS = Baseline.Linial_saks
module Mpx = Baseline.Mpx
module Greedy = Baseline.Greedy
module Abcp = Baseline.Abcp
module Clustering = Cluster.Clustering
module Carving = Cluster.Carving
module Decomposition = Cluster.Decomposition

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let is_ok = function Ok () -> true | Error _ -> false

let fail_on_error = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "checker rejected: %s" e

let log2_ceil n =
  let rec go acc k = if k >= n then acc else go (acc + 1) (2 * k) in
  max 1 (go 0 1)

let color_bound n = (6 * log2_ceil n) + 6

(* ABCP on every node of [g], as a carving *)
let abcp_carve g ~epsilon =
  let n = Graph.n g in
  let clusters, info = Abcp.carve g ~domain:(Array.init n Fun.id) ~epsilon in
  (Carving.of_clusters g ~domain:(Mask.full n) clusters, info)

let workload seed =
  let rng = Rng.create seed in
  [
    ("path", Gen.path 64);
    ("grid", Gen.grid 8 8);
    ("tree", Gen.random_tree (Rng.split rng) 70);
    ("er", Gen.ensure_connected rng (Gen.erdos_renyi (Rng.split rng) 64 0.06));
    ("hypercube", Gen.hypercube 6);
    ("ring_of_cliques", Gen.ring_of_cliques 6 6);
    ("expander", Gen.expander (Rng.split rng) 64);
  ]

(* ------------------------------------------------------------------ *)
(* Linial–Saks                                                          *)
(* ------------------------------------------------------------------ *)

let test_ls_carve_contract () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let carving = Carving.of_carver (LS.carve (Rng.create 1)) g ~epsilon:0.5 in
      fail_on_error (Carving.check_weak ~epsilon:0.5 carving))
    (workload 1)

let test_ls_carve_weak_diameter_bound () =
  let g = Gen.grid 10 10 in
  let epsilon = 0.5 in
  let carving = Carving.of_carver (LS.carve (Rng.create 2)) g ~epsilon in
  let bound = 2 * LS.max_radius ~n:100 ~epsilon in
  let diam = Clustering.max_weak_diameter carving.Carving.clustering in
  check bool
    (Printf.sprintf "weak diameter %d <= 2·cap %d" diam bound)
    true
    (diam >= 0 && diam <= bound)

let test_ls_decompose () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let d = LS.decompose (Rng.create 3) g in
      fail_on_error (Decomposition.check ~colors_bound:(color_bound (Graph.n g)) d))
    (workload 3)

let test_ls_epsilon_sweep () =
  let g = Gen.grid 9 9 in
  List.iter
    (fun epsilon ->
      let carving = Carving.of_carver (LS.carve (Rng.create 4)) g ~epsilon in
      check bool "dead bounded" true (Carving.dead_fraction carving <= epsilon))
    [ 0.5; 0.25 ]

let test_ls_charges_cost () =
  let cost = Congest.Cost.create () in
  ignore (Carving.of_carver ~cost (LS.carve (Rng.create 5)) (Gen.grid 8 8) ~epsilon:0.5);
  check bool "rounds" true (Congest.Cost.rounds cost > 0);
  check bool "small messages" true
    (Congest.Cost.max_message_bits cost <= 2 * Congest.Bits.id_bits ~n:64)

(* ------------------------------------------------------------------ *)
(* MPX / EN16                                                           *)
(* ------------------------------------------------------------------ *)

let test_mpx_partition_covers_and_connects () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let clustering = Mpx.partition (Rng.create 1) g ~beta:0.3 in
      check int "all assigned" (Graph.n g) (Clustering.clustered_count clustering);
      check bool "clusters connected" true
        (Clustering.max_strong_diameter clustering >= 0))
    (workload 11)

let test_mpx_partition_big_beta_fragments () =
  (* large beta = tiny shifts = most nodes are their own cluster *)
  let g = Gen.grid 8 8 in
  let c = Mpx.partition (Rng.create 2) g ~beta:50.0 in
  check bool "many clusters" true (Clustering.num_clusters c > 32)

let test_mpx_carve_contract () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let carving = Carving.of_carver (Mpx.carve (Rng.create 3)) g ~epsilon:0.5 in
      fail_on_error (Carving.check_strong ~epsilon:0.5 carving))
    (workload 13)

let test_mpx_decompose () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let d = Mpx.decompose (Rng.create 5) g in
      fail_on_error (Decomposition.check ~colors_bound:(color_bound (Graph.n g)) d);
      check bool "strong clusters" true
        (Clustering.max_strong_diameter (Decomposition.clustering d) >= 0))
    (workload 15)

let test_mpx_diameter_shape () =
  (* strong diameter should stay in the O(log n / eps) regime *)
  let g = Gen.expander (Rng.create 6) 256 in
  let carving = Carving.of_carver (Mpx.carve (Rng.create 7)) g ~epsilon:0.5 in
  let diam = Clustering.max_strong_diameter carving.Carving.clustering in
  let bound = 40.0 *. log 256.0 in
  check bool
    (Printf.sprintf "diameter %d within O(log n/eps) scale %.0f" diam bound)
    true
    (float_of_int diam <= bound)

(* ------------------------------------------------------------------ *)
(* Greedy ball growing                                                  *)
(* ------------------------------------------------------------------ *)

(* Greedy.carve on every node, as a carving *)
let greedy_carving g ~epsilon =
  let n = Graph.n g in
  Carving.of_clusters g ~domain:(Mask.full n)
    (Greedy.carve g ~domain:(Array.init n Fun.id) ~epsilon)

let test_greedy_carve_contract () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let carving = greedy_carving g ~epsilon:0.5 in
      fail_on_error (Carving.check_strong ~epsilon:0.5 carving))
    (workload 21)

let test_greedy_carve_diameter_bound () =
  let g = Gen.grid 12 12 in
  let carving = greedy_carving g ~epsilon:0.5 in
  (* beta = 2: diameter <= 2·log2 n *)
  let diam = Clustering.max_strong_diameter carving.Carving.clustering in
  check bool "diameter <= 2 log2 n" true (diam <= 2 * log2_ceil 144)

let test_greedy_decompose_presets () =
  let g = Gen.grid 10 10 in
  List.iter
    (fun preset ->
      let d = Greedy.decompose ~preset g in
      fail_on_error (Decomposition.check d);
      check bool "strong clusters" true
        (Clustering.max_strong_diameter (Decomposition.clustering d) >= 0))
    [ Greedy.Ls93_existential; Greedy.Aglp; Greedy.Gha19 ]

let test_greedy_tradeoff_direction () =
  (* larger beta => shallower clusters (fewer BFS layers), possibly more
     colors: the AGLP-style points trade diameter against colors *)
  let g = Gen.path 256 in
  let d2 = Greedy.decompose ~preset:Greedy.Ls93_existential g in
  let dbig = Greedy.decompose ~preset:Greedy.Gha19 g in
  let diam d = Clustering.max_strong_diameter (Decomposition.clustering d) in
  check bool "bigger beta not deeper" true (diam dbig <= max 2 (diam d2))

let test_greedy_deterministic () =
  let g = Gen.erdos_renyi (Rng.create 8) 60 0.08 in
  let a = greedy_carving g ~epsilon:0.5 in
  let b = greedy_carving g ~epsilon:0.5 in
  for v = 0 to 59 do
    check int "same"
      (Clustering.cluster_of a.Carving.clustering v)
      (Clustering.cluster_of b.Carving.clustering v)
  done

let test_greedy_beta_validation () =
  Alcotest.check_raises "beta" (Invalid_argument "Greedy.carve: beta must exceed 1")
    (fun () ->
      ignore
        (Greedy.carve ~beta:1.0 (Gen.path 4) ~domain:[| 0; 1; 2; 3 |]
           ~epsilon:0.5))

(* Every carver checks its domain with the one loop of
   Cluster.Carving.check_domain: strictly ascending ids of the graph's
   nodes. Before, Greedy.carve took [|3; 1; 0|] on a 4x4 grid and
   returned the adjacent clusters [1] and [0], and a duplicate, negative
   or too-large id raised a bare "index out of bounds", directly and
   through Netdecomp.of_carver. The paper's carvers took a mask:
   Transform.strong_carve_unknown_n accepted a 10-cell mask on a 6x6
   grid without a word, and Edge_carving.carve raised a bare "index out
   of bounds" on a 10-cell or a 40-cell one. *)
let test_domain_check () =
  let g = Gen.grid 4 4 in
  let rejects name f =
    List.iter
      (fun domain ->
        Alcotest.check_raises
          (Printf.sprintf "%s [%s]" name
             (String.concat ";" (Array.to_list (Array.map string_of_int domain))))
          (Invalid_argument
             (name ^ ": domain must be strictly ascending node ids of the graph"))
          (fun () -> f domain))
      [ [| 3; 1; 0 |]; [| 1; 1 |]; [| -1; 2 |]; [| 0; 16 |] ]
  in
  let greedy ?cost g ~domain ~epsilon = Greedy.carve ?cost g ~domain ~epsilon in
  rejects "Greedy.carve" (fun domain ->
      ignore (greedy g ~domain ~epsilon:0.5));
  rejects "Netdecomp.of_carver" (fun domain ->
      ignore (Strongdecomp.Netdecomp.of_carver ~domain greedy g));
  rejects "Linial_saks.carve" (fun domain ->
      ignore (LS.carve (Rng.create 1) g ~domain ~epsilon:0.5));
  rejects "Linial_saks.carve_with_trees" (fun domain ->
      ignore (LS.weak_carver (Rng.create 1) g ~domain ~epsilon:0.5));
  rejects "Mpx.carve" (fun domain ->
      ignore (Mpx.carve (Rng.create 1) g ~domain ~epsilon:0.5));
  rejects "Abcp.carve" (fun domain -> ignore (Abcp.carve g ~domain ~epsilon:0.5));
  rejects "Transform.strong_carve" (fun domain ->
      ignore (Baseline.Ls_transform.carve (Rng.create 1) g ~domain ~epsilon:0.5));
  rejects "Transform.strong_carve" (fun domain ->
      ignore (Strongdecomp.Strong_carving.carve () g ~domain ~epsilon:0.5));
  rejects "Transform.strong_carve_unknown_n" (fun domain ->
      ignore
        (Strongdecomp.Transform.strong_carve_unknown_n
           ~weak:
             (Strongdecomp.Strong_carving.weak_of_preset
                Weakdiam.Weak_carving.default_preset)
           g ~domain ~epsilon:0.5));
  rejects "Edge_carving.carve" (fun domain ->
      ignore (Strongdecomp.Edge_carving.carve ~domain g ~epsilon:0.5));
  rejects "Weak_carving.carve_local" (fun domain ->
      ignore (Weakdiam.Weak_carving.carve_local g ~domain ~epsilon:0.5));
  (* the simulated carvings check their domain in their engine run *)
  rejects "Weak_carving.carve" (fun domain ->
      ignore (Weakdiam.Weak_carving.carve g ~domain ~epsilon:0.5));
  rejects "Weak_carving.carve" (fun domain ->
      ignore (Weakdiam.Distributed.carve g ~domain ~epsilon:0.5));
  rejects "Weak_carving.carve" (fun domain ->
      ignore (Weakdiam.Distributed.carve_reliable g ~domain ~epsilon:0.5));
  rejects "Improve.improve" (fun domain ->
      ignore (Strongdecomp.Strong_carving.carve_improved () g ~domain ~epsilon:0.5));
  rejects "Sparse_cut.run" (fun domain ->
      ignore Strongdecomp.Sparse_cut.(run (scratch ()) g ~domain));
  (* a well-formed domain still carves, and the loop's own domains are
     never rejected *)
  fail_on_error
    (Carving.check_strong ~epsilon:0.5
       (Carving.of_clusters g
          ~domain:(Mask.of_list 16 [ 0; 1; 3 ])
          (greedy g ~domain:[| 0; 1; 3 |] ~epsilon:0.5)));
  fail_on_error
    (Decomposition.check
       ~domain:(Mask.of_list 16 [ 0; 2; 5; 15 ])
       (Strongdecomp.Netdecomp.of_carver ~domain:[| 0; 2; 5; 15 |] greedy g))

(* ------------------------------------------------------------------ *)
(* ABCP                                                                 *)
(* ------------------------------------------------------------------ *)

let test_abcp_carve_contract () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let carving, _ = abcp_carve g ~epsilon:0.5 in
      fail_on_error (Carving.check_strong ~epsilon:0.5 carving))
    (workload 31)

let test_abcp_diameter_bound () =
  let g = Gen.grid 8 8 in
  let carving, _ = abcp_carve g ~epsilon:0.5 in
  let diam = Clustering.max_strong_diameter carving.Carving.clustering in
  check bool "diameter <= 2 log2 n" true (diam <= 2 * log2_ceil 64)

let test_abcp_messages_blow_up () =
  (* the whole point: topology gathering needs more than O(log n) bits *)
  let g = Gen.grid 8 8 in
  let _, info = abcp_carve g ~epsilon:0.5 in
  check bool
    (Printf.sprintf "max message %d bits exceeds CONGEST bandwidth %d"
       info.Abcp.max_message_bits
       (Congest.Bits.bandwidth ~n:64))
    true
    (info.Abcp.max_message_bits > Congest.Bits.bandwidth ~n:64)

let test_abcp_decompose () =
  let g = Gen.grid 7 7 in
  let d, info = Abcp.decompose g in
  fail_on_error (Decomposition.check ~colors_bound:(color_bound 49) d);
  check bool "info aggregated" true (info.Abcp.max_message_bits > 0)

(* ------------------------------------------------------------------ *)
(* Property tests                                                       *)
(* ------------------------------------------------------------------ *)

let arb_connected =
  QCheck.make
    ~print:(fun (seed, n, pct) -> Printf.sprintf "seed=%d n=%d p=%d%%" seed n pct)
    QCheck.Gen.(triple (int_bound 100_000) (int_range 2 40) (int_range 3 25))

let connected_graph (seed, n, pct) =
  let rng = Rng.create seed in
  Gen.ensure_connected rng (Gen.erdos_renyi rng n (float_of_int pct /. 100.0))

let prop_ls_carve =
  QCheck.Test.make ~name:"linial-saks carving is a valid weak carving" ~count:60
    arb_connected (fun input ->
      let g = connected_graph input in
      let carving = Carving.of_carver (LS.carve (Rng.create (Graph.n g))) g ~epsilon:0.5 in
      is_ok (Carving.check_weak ~epsilon:0.5 carving))

let prop_mpx_carve =
  QCheck.Test.make ~name:"mpx carving is a valid strong carving" ~count:60
    arb_connected (fun input ->
      let g = connected_graph input in
      let carving = Carving.of_carver (Mpx.carve (Rng.create (Graph.n g))) g ~epsilon:0.5 in
      is_ok (Carving.check_strong ~epsilon:0.5 carving))

let prop_greedy_carve =
  QCheck.Test.make ~name:"greedy carving is a valid strong carving" ~count:60
    arb_connected (fun input ->
      let g = connected_graph input in
      is_ok (Carving.check_strong ~epsilon:0.5 (greedy_carving g ~epsilon:0.5)))

let prop_abcp_carve =
  QCheck.Test.make ~name:"abcp carving is a valid strong carving" ~count:25
    arb_connected (fun input ->
      let g = connected_graph input in
      let carving, _ = abcp_carve g ~epsilon:0.5 in
      is_ok (Carving.check_strong ~epsilon:0.5 carving))

(* The layer-by-layer greedy grower against the whole-component BFS
   oracle of greedy_ref.ml: same cluster of every node, same dead set,
   same colors, same Cost breakdown, rounds, messages and bits — on all
   nodes and on random ascending domain arrays, on grids, sparse ER and
   hub-heavy RMAT graphs. *)
let equivalence_gen =
  QCheck.Gen.(
    quad (int_bound 100_000) (int_range 0 2) (int_range 0 2) (int_range 2 6))

let equivalence_graph rng family =
  match family with
  | 0 -> Gen.grid (2 + Rng.int rng 30) (2 + Rng.int rng 30)
  | 1 ->
      let n = 2 + Rng.int rng 300 in
      Gen.erdos_renyi rng n (Rng.float rng (6.0 /. float_of_int n))
  | _ ->
      let log2 = 6 + Rng.int rng 5 in
      Gen.rmat rng ~n:(1 lsl log2) ~m:((2 + Rng.int rng 14) lsl log2)

let same_cost ca cb =
  Congest.Cost.breakdown ca = Congest.Cost.breakdown cb
  && Congest.Cost.rounds ca = Congest.Cost.rounds cb
  && Congest.Cost.messages ca = Congest.Cost.messages cb
  && Congest.Cost.max_message_bits ca = Congest.Cost.max_message_bits cb

let same_labels g a b =
  List.for_all
    (fun v -> Clustering.cluster_of a v = Clustering.cluster_of b v)
    (Graph.nodes g)

let prop_greedy_matches_reference =
  QCheck.Test.make ~name:"layered greedy equals the full-BFS reference"
    ~count:120
    (QCheck.make
       ~print:(fun (seed, family, preset, calls) ->
         Printf.sprintf "seed=%d family=%d preset=%d calls=%d" seed family
           preset calls)
       equivalence_gen)
    (fun (seed, family, preset, calls) ->
      let rng = Rng.create seed in
      let g = equivalence_graph rng family in
      let n = Graph.n g in
      let preset =
        [| Greedy.Ls93_existential; Greedy.Aglp; Greedy.Gha19 |].(preset)
      in
      let ca = Congest.Cost.create () and cb = Congest.Cost.create () in
      let da = Greedy.decompose ~cost:ca ~preset g in
      let db = Greedy_ref.decompose ~cost:cb ~preset g in
      same_cost ca cb
      && same_labels g (Decomposition.clustering da)
           (Decomposition.clustering db)
      && List.for_all
           (fun v ->
             Decomposition.color_of_node da v
             = Decomposition.color_of_node db v)
           (Graph.nodes g)
      && List.for_all
           (fun call ->
             let epsilon = 0.05 +. Rng.float rng 0.9 in
             let domain =
               if call = 0 then Graph.nodes g
               else
                 let keep = 0.3 +. Rng.float rng 0.7 in
                 List.filter (fun _ -> Rng.float rng 1.0 < keep) (Graph.nodes g)
             in
             let mask = Mask.of_list n domain in
             let ca = Congest.Cost.create () and cb = Congest.Cost.create () in
             let a =
               Carving.of_clusters g ~domain:mask
                 (Greedy.carve ~cost:ca g ~domain:(Array.of_list domain)
                    ~epsilon)
             in
             let b = Greedy_ref.carve ~cost:cb ~domain:mask g ~epsilon in
             same_cost ca cb
             && same_labels g a.Carving.clustering b.Carving.clustering
             && Carving.dead a = Carving.dead b)
           (List.init calls Fun.id))

let () =
  Alcotest.run "baseline"
    [
      ( "linial_saks",
        [
          Alcotest.test_case "carve contract" `Quick test_ls_carve_contract;
          Alcotest.test_case "weak diameter bound" `Quick
            test_ls_carve_weak_diameter_bound;
          Alcotest.test_case "decompose" `Quick test_ls_decompose;
          Alcotest.test_case "epsilon sweep" `Quick test_ls_epsilon_sweep;
          Alcotest.test_case "charges cost" `Quick test_ls_charges_cost;
        ] );
      ( "mpx",
        [
          Alcotest.test_case "partition covers" `Quick
            test_mpx_partition_covers_and_connects;
          Alcotest.test_case "big beta fragments" `Quick
            test_mpx_partition_big_beta_fragments;
          Alcotest.test_case "carve contract" `Quick test_mpx_carve_contract;
          Alcotest.test_case "decompose" `Quick test_mpx_decompose;
          Alcotest.test_case "diameter shape" `Quick test_mpx_diameter_shape;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "carve contract" `Quick test_greedy_carve_contract;
          Alcotest.test_case "diameter bound" `Quick
            test_greedy_carve_diameter_bound;
          Alcotest.test_case "decompose presets" `Quick
            test_greedy_decompose_presets;
          Alcotest.test_case "tradeoff direction" `Quick
            test_greedy_tradeoff_direction;
          Alcotest.test_case "deterministic" `Quick test_greedy_deterministic;
          Alcotest.test_case "beta validation" `Quick test_greedy_beta_validation;
          Alcotest.test_case "domain check" `Quick test_domain_check;
        ] );
      ( "abcp",
        [
          Alcotest.test_case "carve contract" `Quick test_abcp_carve_contract;
          Alcotest.test_case "diameter bound" `Quick test_abcp_diameter_bound;
          Alcotest.test_case "messages blow up" `Quick
            test_abcp_messages_blow_up;
          Alcotest.test_case "decompose" `Quick test_abcp_decompose;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ls_carve;
            prop_mpx_carve;
            prop_greedy_carve;
            prop_greedy_matches_reference;
            prop_abcp_carve;
          ]
      );
    ]
