open Dsgraph
module Clustering = Cluster.Clustering
module Steiner = Cluster.Steiner
module Carving = Cluster.Carving
module Decomposition = Cluster.Decomposition

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let is_ok = function Ok () -> true | Error _ -> false

let result_t = Alcotest.testable (fun fmt r ->
    match r with
    | Ok () -> Format.fprintf fmt "Ok"
    | Error e -> Format.fprintf fmt "Error %s" e)
    (fun a b -> is_ok a = is_ok b)

(* ------------------------------------------------------------------ *)
(* Clustering                                                           *)
(* ------------------------------------------------------------------ *)

let test_clustering_normalizes () =
  let g = Gen.path 5 in
  let c = Clustering.make g ~cluster_of:[| 7; 7; -1; 42; 42 |] in
  check int "num clusters" 2 (Clustering.num_clusters c);
  check int "first" 0 (Clustering.cluster_of c 0);
  check int "second" 1 (Clustering.cluster_of c 3);
  check int "unclustered" (-1) (Clustering.cluster_of c 2);
  Alcotest.(check (list int)) "members 0" [ 0; 1 ] (Clustering.members c 0);
  Alcotest.(check (list int)) "members 1" [ 3; 4 ] (Clustering.members c 1);
  check int "clustered count" 4 (Clustering.clustered_count c);
  Alcotest.(check (list int)) "unclustered" [ 2 ] (Clustering.unclustered c)

let test_clustering_length_mismatch () =
  let g = Gen.path 3 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Clustering.make: array length mismatch") (fun () ->
      ignore (Clustering.make g ~cluster_of:[| 0; 0 |]))

let test_clustering_adjacency () =
  let g = Gen.path 4 in
  let adjacent = Clustering.make g ~cluster_of:[| 0; 0; 1; 1 |] in
  check bool "adjacent" false (Clustering.non_adjacent adjacent);
  Alcotest.(check (list (pair int int)))
    "pair" [ (0, 1) ]
    (Clustering.adjacent_cluster_pairs adjacent);
  let separated = Clustering.make g ~cluster_of:[| 0; 0; -1; 1 |] in
  check bool "separated" true (Clustering.non_adjacent separated)

let test_clustering_largest () =
  let g = Gen.path 6 in
  let c = Clustering.make g ~cluster_of:[| 0; 0; 0; 1; 1; -1 |] in
  Alcotest.(check (array int)) "sizes" [| 3; 2 |] (Clustering.sizes c)

let test_clustering_strong_diameter () =
  let g = Gen.cycle 8 in
  let c = Clustering.make g ~cluster_of:[| 0; 0; 0; -1; 1; 1; -1; 0 |] in
  (* cluster 0 = {0,1,2,7}: induced path 7-0-1-2 -> diameter 3 *)
  check int "arc diameter" 3 (Clustering.strong_diameter c 0);
  check int "pair" 1 (Clustering.strong_diameter c 1);
  check int "max strong" 3 (Clustering.max_strong_diameter c)

let test_clustering_disconnected_cluster () =
  let g = Gen.star 5 in
  let c = Clustering.make g ~cluster_of:[| -1; 0; 0; -1; -1 |] in
  check int "strong" (-1) (Clustering.strong_diameter c 0);
  check int "max strong" (-1) (Clustering.max_strong_diameter c);
  check int "weak through hub" 2 (Clustering.weak_diameter c 0);
  check int "max weak" 2 (Clustering.max_weak_diameter c)

let test_clustering_weak_diameter_masked () =
  (* cutting the hub out of the host graph disconnects the leaves *)
  let g =
    Graph.apply_edits (Gen.star 5)
      ~del:[ (0, 1); (0, 2); (0, 3); (0, 4) ]
      ~add:[]
  in
  let c = Clustering.make g ~cluster_of:[| -1; 0; 0; -1; -1 |] in
  check int "masked weak" (-1) (Clustering.weak_diameter c 0)

(* The normalization Clustering.make did with a polymorphic Hashtbl:
   dense ids in order of first appearance, members by a cons per node. *)
let hashtbl_normalize cluster_of =
  let remap = Hashtbl.create 16 in
  let next = ref 0 in
  let normalized =
    Array.map
      (fun c ->
        if c < 0 then -1
        else
          match Hashtbl.find_opt remap c with
          | Some d -> d
          | None ->
              let d = !next in
              incr next;
              Hashtbl.add remap c d;
              d)
      cluster_of
  in
  let members = Array.make !next [] in
  for v = Array.length cluster_of - 1 downto 0 do
    let c = normalized.(v) in
    if c >= 0 then members.(c) <- v :: members.(c)
  done;
  (normalized, members)

(* label families: all unclustered, small, at least n, near max_int, and
   a mix with negatives of every size *)
let label_of mode rng n _ =
  match mode with
  | 0 -> -1
  | 1 -> Rng.int rng (n + 1) - 1
  | 2 -> n + Rng.int rng (2 * n + 1)
  | 3 -> max_int - Rng.int rng 5
  | _ -> (
      match Rng.int rng 4 with
      | 0 -> min_int + Rng.int rng 3
      | 1 -> max_int - Rng.int rng 3
      | 2 -> Rng.int rng 4
      | _ -> -1 - Rng.int rng 3)

let prop_make_matches_hashtbl_normalization =
  QCheck2.Test.make ~count:300
    ~name:"Clustering.make equals the Hashtbl normalization"
    ~print:(fun (seed, n, mode) -> Printf.sprintf "seed=%d n=%d mode=%d" seed n mode)
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 0 80) (int_range 0 4))
    (fun (seed, n, mode) ->
      let rng = Rng.create seed in
      let labels = Array.init n (label_of mode rng n) in
      let cl = Cluster.Clustering.make (Gen.path n) ~cluster_of:labels in
      let normalized, members = hashtbl_normalize labels in
      Cluster.Clustering.num_clusters cl = Array.length members
      && List.for_all
           (fun v -> Cluster.Clustering.cluster_of cl v = normalized.(v))
           (List.init n Fun.id)
      && Cluster.Clustering.clusters cl = Array.to_list members)

(* labels near max_int cost what small ones do: the remap table is O(n),
   never sized by the labels *)
let test_make_allocation_independent_of_labels () =
  let n = 4096 in
  let g = Gen.path n in
  (* the least of three runs, each from an empty minor heap: a
     collection during a run can inflate the counters *)
  let words labels =
    let once () =
      Gc.minor ();
      let minor0, promoted0, major0 = Gc.counters () in
      ignore (Sys.opaque_identity (Cluster.Clustering.make g ~cluster_of:labels));
      let minor1, promoted1, major1 = Gc.counters () in
      minor1 -. minor0 +. (major1 -. promoted1) -. (major0 -. promoted0)
    in
    List.fold_left min infinity [ once (); once (); once () ]
  in
  List.iter
    (fun (what, label) ->
      let w = words (Array.init n label) in
      check bool
        (Printf.sprintf "%s labels: %.0f words for n = %d" what w n)
        true
        (w < float_of_int (16 * n)))
    [ ("small", fun v -> v / 3); ("huge", fun v -> max_int - (v / 3)) ]

(* The strong searches run a member-restricted BFS over a shared
   scratch; the weak variants confined to the member mask run the
   reference masked BFS. [strong_witnesses] must return exactly the
   weak tree and pair on every cluster (and [None] exactly when the
   weak tree is [None]), which is what keeps certificates
   byte-identical. Random clusterings of sparse random graphs give
   connected and disconnected clusters, singletons and pairs. *)
let prop_restricted_matches_masked_reference =
  QCheck2.Test.make ~count:80
    ~name:"strong witnesses equal the weak ones on the cluster's own edges"
    ~print:(fun (seed, n, pct, k) ->
      Printf.sprintf "seed=%d n=%d p=%d%% k=%d" seed n pct k)
    QCheck2.Gen.(
      quad (int_bound 100_000) (int_range 1 40) (int_range 2 40)
        (int_range 1 6))
    (fun (seed, n, pct, k) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      let cluster_of = Array.init n (fun _ -> Rng.int rng (k + 1) - 1) in
      let c = Clustering.make g ~cluster_of in
      let scratch = Bfs.scratch n in
      List.for_all
        (fun i ->
          (* the host graph cut down to the edges inside cluster i *)
          let own =
            Clustering.make ~cluster_of
              (Graph.of_edge_seq ~n
                 (Seq.filter
                    (fun (u, v) ->
                      Clustering.cluster_of c u = i
                      && Clustering.cluster_of c v = i)
                    (Graph.edges_seq g)))
          in
          let pair = Clustering.weak_eccentric_pair own i in
          Clustering.strong_witnesses ~scratch c i
          = Option.map
              (fun tree -> (tree, pair))
              (Clustering.weak_witness_tree own i))
        (List.init (Clustering.num_clusters c) Fun.id))

(* Test-only oracle: the weak double sweep Clustering used before its
   sweeps stopped early on a shared scratch, kept as it was (two
   whole-graph Bfs.distances per cluster). *)
let double_sweep t c =
  let g = Clustering.graph t in
  match Clustering.members t c with
  | [] | [ _ ] -> 0
  | [ u; v ] ->
      if Graph.is_edge g u v then 1
      else
        let dist = Bfs.distances g ~source:u in
        dist.(v)
  | first :: _ as members -> (
      let sweep source =
        let dist = Bfs.distances g ~source in
        List.fold_left
          (fun acc v ->
            match acc with
            | None -> None
            | Some (best_v, best_d) ->
                if dist.(v) < 0 then None
                else if dist.(v) > best_d then Some (v, dist.(v))
                else Some (best_v, best_d))
          (Some (source, 0))
          members
      in
      match sweep first with
      | None -> -1
      | Some (far, d1) -> (
          match sweep far with None -> -1 | Some (_, d2) -> max d1 d2))

let prop_weak_estimate_matches_double_sweep =
  QCheck2.Test.make ~count:100
    ~name:"early-stopping weak estimate equals the full double sweep"
    ~print:(fun (seed, n, pct, k) ->
      Printf.sprintf "seed=%d n=%d p=%d%% k=%d" seed n pct k)
    QCheck2.Gen.(
      quad (int_bound 100_000) (int_range 1 60) (int_range 1 30)
        (int_range 1 8))
    (fun (seed, n, pct, k) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      let cluster_of = Array.init n (fun _ -> Rng.int rng (k + 1) - 1) in
      let c = Clustering.make g ~cluster_of in
      let scratch = Bfs.scratch n in
      let all = List.init (Clustering.num_clusters c) Fun.id in
      List.for_all
        (fun i -> Clustering.weak_diameter_estimate ~scratch c i = double_sweep c i)
        all
      && Clustering.max_weak_diameter_estimate c
         = List.fold_left
             (fun acc i ->
               let d = double_sweep c i in
               if acc < 0 || d < 0 then -1 else max acc d)
             0 all)

(* ------------------------------------------------------------------ *)
(* Steiner trees                                                        *)
(* ------------------------------------------------------------------ *)

let tree_path =
  (* path 0-1-2-3 rooted at 0 *)
  { Steiner.root = 0; parent = [ (0, 0); (1, 0); (2, 1); (3, 2) ] }

let test_steiner_depth () =
  check int "path depth" 3 (Steiner.depth tree_path);
  check int "singleton" 0 (Steiner.depth { Steiner.root = 5; parent = [ (5, 5) ] })

let test_steiner_nodes () =
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2; 3 ] (Steiner.nodes tree_path)

let test_steiner_check_valid () =
  let g = Gen.path 4 in
  check result_t "valid" (Ok ())
    (Steiner.check g tree_path ~terminals:[ 0; 3 ])

let test_steiner_check_missing_terminal () =
  let g = Gen.path 5 in
  check bool "missing terminal rejected" false
    (is_ok (Steiner.check g tree_path ~terminals:[ 4 ]))

let test_steiner_check_non_edge () =
  let g = Gen.path 4 in
  let tree = { Steiner.root = 0; parent = [ (0, 0); (3, 0) ] } in
  check bool "non-edge rejected" false (is_ok (Steiner.check g tree ~terminals:[]))

let test_steiner_check_cycle () =
  let g = Gen.cycle 4 in
  let tree =
    { Steiner.root = 0; parent = [ (0, 0); (1, 2); (2, 1); (3, 0) ] }
  in
  check bool "cycle rejected" false (is_ok (Steiner.check g tree ~terminals:[]))

let test_steiner_check_missing_root () =
  let g = Gen.path 4 in
  let tree = { Steiner.root = 0; parent = [ (1, 0); (2, 1) ] } in
  check bool "missing root entry rejected" false
    (is_ok (Steiner.check g tree ~terminals:[ 1 ]))

let test_steiner_congestion () =
  let g = Gen.star 4 in
  (* two trees both using edge (0,1) *)
  let t1 = { Steiner.root = 0; parent = [ (0, 0); (1, 0) ] } in
  let t2 = { Steiner.root = 1; parent = [ (1, 1); (0, 1); (2, 0) ] } in
  check int "congestion" 2 (Steiner.congestion g [| t1; t2 |]);
  check int "single tree" 1 (Steiner.congestion g [| t1 |])

let test_steiner_forest_check () =
  let g = Gen.path 4 in
  let clustering = Clustering.make g ~cluster_of:[| 0; 0; -1; 1 |] in
  let forest =
    [|
      { Steiner.root = 0; parent = [ (0, 0); (1, 0) ] };
      { Steiner.root = 3; parent = [ (3, 3) ] };
    |]
  in
  check result_t "forest ok" (Ok ())
    (Steiner.check_forest g forest ~clustering ~depth_bound:1
       ~congestion_bound:1);
  check bool "depth bound violation" false
    (is_ok
       (Steiner.check_forest g forest ~clustering ~depth_bound:0
          ~congestion_bound:1))

(* ------------------------------------------------------------------ *)
(* Carving                                                              *)
(* ------------------------------------------------------------------ *)

let test_carving_dead_fraction () =
  let g = Gen.path 4 in
  let clustering = Clustering.make g ~cluster_of:[| 0; 0; -1; 1 |] in
  let carving = Carving.make clustering ~domain:(Mask.full 4) in
  Alcotest.(check (list int)) "dead" [ 2 ] (Carving.dead carving);
  check (Alcotest.float 1e-9) "fraction" 0.25 (Carving.dead_fraction carving)

let test_carving_domain_violation () =
  let g = Gen.path 4 in
  let clustering = Clustering.make g ~cluster_of:[| 0; 0; -1; 1 |] in
  Alcotest.check_raises "outside domain"
    (Invalid_argument "Carving.make: clustered node outside domain") (fun () ->
      ignore (Carving.make clustering ~domain:(Mask.of_list 4 [ 0; 1; 2 ])))

let test_carving_check_strong () =
  let g = Gen.path 6 in
  let clustering = Clustering.make g ~cluster_of:[| 0; 0; -1; 1; 1; 1 |] in
  let carving = Carving.make clustering ~domain:(Mask.full 6) in
  check result_t "ok" (Ok ())
    (Carving.check_strong ~epsilon:0.2 ~diameter_bound:2 carving);
  check bool "diameter bound" false
    (is_ok (Carving.check_strong ~diameter_bound:1 carving));
  check bool "epsilon bound" false
    (is_ok (Carving.check_strong ~epsilon:0.1 carving))

let test_carving_check_rejects_adjacent_clusters () =
  let g = Gen.path 4 in
  let clustering = Clustering.make g ~cluster_of:[| 0; 0; 1; 1 |] in
  let carving = Carving.make clustering ~domain:(Mask.full 4) in
  check bool "adjacent rejected" false (is_ok (Carving.check_strong carving))

let test_carving_check_rejects_disconnected_cluster () =
  let g = Gen.star 5 in
  let clustering = Clustering.make g ~cluster_of:[| -1; 0; 0; -1; -1 |] in
  let carving = Carving.make clustering ~domain:(Mask.full 5) in
  check bool "weak ok" true (is_ok (Carving.check_weak carving));
  check bool "strong rejects" false (is_ok (Carving.check_strong carving))

let test_carving_check_weak_with_steiner () =
  let g = Gen.star 5 in
  let clustering = Clustering.make g ~cluster_of:[| -1; 0; 0; -1; -1 |] in
  let carving = Carving.make clustering ~domain:(Mask.full 5) in
  let forest =
    [| { Steiner.root = 1; parent = [ (1, 1); (0, 1); (2, 0) ] } |]
  in
  check result_t "weak with trees" (Ok ())
    (Carving.check_weak ~steiner:forest ~depth_bound:2 ~congestion_bound:1
       carving);
  check bool "tight depth fails" false
    (is_ok
       (Carving.check_weak ~steiner:forest ~depth_bound:1 ~congestion_bound:1
          carving))

let test_carving_empty_domain () =
  let g = Gen.path 3 in
  let clustering = Clustering.make g ~cluster_of:[| -1; -1; -1 |] in
  let carving = Carving.make clustering ~domain:(Mask.empty 3) in
  check (Alcotest.float 1e-9) "no dead fraction" 0.0
    (Carving.dead_fraction carving)

(* ------------------------------------------------------------------ *)
(* Decomposition                                                        *)
(* ------------------------------------------------------------------ *)

let test_decomposition_valid () =
  let g = Gen.path 6 in
  (* clusters {0,1} {2,3} {4,5}; alternate colors 0 1 0 *)
  let clustering = Clustering.make g ~cluster_of:[| 0; 0; 1; 1; 2; 2 |] in
  let d = Decomposition.make clustering ~color_of_cluster:[| 0; 1; 0 |] in
  check int "colors" 2 (Decomposition.num_colors d);
  check result_t "valid" (Ok ()) (Decomposition.check d);
  check int "node color" 1 (Decomposition.color_of_node d 3);
  Alcotest.(check (list int)) "color 0 clusters" [ 0; 2 ]
    (Decomposition.clusters_of_color d 0)

let test_decomposition_rejects_same_color_adjacent () =
  let g = Gen.path 4 in
  let clustering = Clustering.make g ~cluster_of:[| 0; 0; 1; 1 |] in
  let d = Decomposition.make clustering ~color_of_cluster:[| 0; 0 |] in
  check bool "same color adjacent" false (is_ok (Decomposition.check d))

let test_decomposition_rejects_unclustered () =
  let g = Gen.path 3 in
  let clustering = Clustering.make g ~cluster_of:[| 0; -1; 1 |] in
  let d = Decomposition.make clustering ~color_of_cluster:[| 0; 0 |] in
  check bool "unclustered node" false (is_ok (Decomposition.check d));
  (* ... unless the domain excludes it *)
  check bool "domain excuses" true
    (is_ok (Decomposition.check ~domain:(Mask.of_list 3 [ 0; 2 ]) d))

let test_decomposition_bounds () =
  let g = Gen.path 6 in
  let clustering = Clustering.make g ~cluster_of:[| 0; 0; 1; 1; 2; 2 |] in
  let d = Decomposition.make clustering ~color_of_cluster:[| 0; 1; 0 |] in
  check bool "colors bound ok" true (is_ok (Decomposition.check ~colors_bound:2 d));
  check bool "colors bound tight" false
    (is_ok (Decomposition.check ~colors_bound:1 d));
  check bool "strong diameter ok" true
    (is_ok (Decomposition.check ~strong_diameter_bound:1 d));
  check bool "strong diameter tight" false
    (is_ok (Decomposition.check ~strong_diameter_bound:0 d))

let test_decomposition_quality () =
  let g = Gen.path 6 in
  let clustering = Clustering.make g ~cluster_of:[| 0; 0; 0; 1; 1; 1 |] in
  let d = Decomposition.make clustering ~color_of_cluster:[| 0; 1 |] in
  let colors, strong, weak = Decomposition.quality d in
  check int "colors" 2 colors;
  check int "strong" 2 strong;
  check int "weak" 2 weak

let test_decomposition_rejects_negative_color () =
  let g = Gen.path 2 in
  let clustering = Clustering.make g ~cluster_of:[| 0; 0 |] in
  Alcotest.check_raises "negative color"
    (Invalid_argument "Decomposition.make: negative color") (fun () ->
      ignore (Decomposition.make clustering ~color_of_cluster:[| -1 |]))

(* ------------------------------------------------------------------ *)
(* Failure injection: corrupt a valid decomposition and expect reject   *)
(* ------------------------------------------------------------------ *)

(* Mutate real algorithm outputs and make sure the checkers notice. *)

let test_checker_catches_steiner_corruption () =
  let g = Gen.grid 6 6 in
  let r = Weakdiam.Weak_carving.carve g ~epsilon:0.5 in
  let forest = r.Weakdiam.Weak_carving.forest in
  let carving = r.Weakdiam.Weak_carving.carving in
  check bool "pristine accepted" true
    (is_ok (Carving.check_weak ~epsilon:0.5 ~steiner:forest carving));
  Array.iter
    (fun t ->
      let nodes = List.map fst t.Steiner.parent in
      check bool "pairs in ascending node order" true
        (nodes = List.sort_uniq compare nodes))
    forest;
  (* corrupt one tree: make a non-root entry its own parent (breaks the
     parent-chain-reaches-root invariant) *)
  let target =
    Array.to_list forest
    |> List.find_opt (fun t -> List.length t.Steiner.parent > 1)
  in
  match target with
  | None -> () (* all clusters are singletons: nothing to corrupt *)
  | Some victim ->
      let idx =
        let found = ref 0 in
        Array.iteri (fun i t -> if t == victim then found := i) forest;
        !found
      in
      let bad_parent =
        List.map
          (fun (v, p) -> if v <> victim.Steiner.root then (v, v) else (v, p))
          victim.Steiner.parent
      in
      let corrupted = Array.copy forest in
      corrupted.(idx) <- { victim with parent = bad_parent };
      check bool "corrupted rejected" false
        (is_ok (Carving.check_weak ~epsilon:0.5 ~steiner:corrupted carving))

let test_checker_catches_membership_corruption () =
  let g = Gen.grid 6 6 in
  let n = Graph.n g in
  let carving =
    Carving.of_clusters g ~domain:(Mask.full n)
      (Baseline.Greedy.carve g ~domain:(Array.init n Fun.id) ~epsilon:0.5)
  in
  let clustering = carving.Carving.clustering in
  check bool "pristine accepted" true (is_ok (Carving.check_strong carving));
  (* move one node into a non-adjacent foreign cluster *)
  let cluster_of =
    Array.init (Graph.n g) (fun v -> Clustering.cluster_of clustering v)
  in
  if Clustering.num_clusters clustering >= 2 then begin
    let a = List.hd (Clustering.members clustering 0) in
    cluster_of.(a) <- 1;
    let mutated =
      Carving.make (Clustering.make g ~cluster_of) ~domain:(Mask.full (Graph.n g))
    in
    (* either the cluster is now disconnected or two clusters touch *)
    check bool "mutated rejected" false (is_ok (Carving.check_strong mutated))
  end

let test_checker_catches_color_corruption () =
  let g = Gen.cycle 6 in
  let clustering = Clustering.make g ~cluster_of:[| 0; 0; 1; 1; 2; 2 |] in
  let good = Decomposition.make clustering ~color_of_cluster:[| 0; 1; 2 |] in
  check bool "good" true (is_ok (Decomposition.check good));
  (* all-same color must fail: clusters 0 and 1 are adjacent *)
  let bad = Decomposition.make clustering ~color_of_cluster:[| 0; 0; 0 |] in
  check bool "bad" false (is_ok (Decomposition.check bad))

let () =
  Alcotest.run "cluster"
    [
      ( "clustering",
        [
          Alcotest.test_case "normalizes" `Quick test_clustering_normalizes;
          Alcotest.test_case "length mismatch" `Quick
            test_clustering_length_mismatch;
          Alcotest.test_case "adjacency" `Quick test_clustering_adjacency;
          Alcotest.test_case "largest" `Quick test_clustering_largest;
          Alcotest.test_case "strong diameter" `Quick
            test_clustering_strong_diameter;
          Alcotest.test_case "disconnected cluster" `Quick
            test_clustering_disconnected_cluster;
          Alcotest.test_case "weak diameter masked" `Quick
            test_clustering_weak_diameter_masked;
          QCheck_alcotest.to_alcotest prop_restricted_matches_masked_reference;
          QCheck_alcotest.to_alcotest prop_weak_estimate_matches_double_sweep;
          QCheck_alcotest.to_alcotest prop_make_matches_hashtbl_normalization;
          Alcotest.test_case "make allocation independent of labels" `Quick
            test_make_allocation_independent_of_labels;
        ] );
      ( "steiner",
        [
          Alcotest.test_case "depth" `Quick test_steiner_depth;
          Alcotest.test_case "nodes" `Quick test_steiner_nodes;
          Alcotest.test_case "check valid" `Quick test_steiner_check_valid;
          Alcotest.test_case "missing terminal" `Quick
            test_steiner_check_missing_terminal;
          Alcotest.test_case "non edge" `Quick test_steiner_check_non_edge;
          Alcotest.test_case "cycle" `Quick test_steiner_check_cycle;
          Alcotest.test_case "missing root" `Quick
            test_steiner_check_missing_root;
          Alcotest.test_case "congestion" `Quick test_steiner_congestion;
          Alcotest.test_case "forest check" `Quick test_steiner_forest_check;
        ] );
      ( "carving",
        [
          Alcotest.test_case "dead fraction" `Quick test_carving_dead_fraction;
          Alcotest.test_case "domain violation" `Quick
            test_carving_domain_violation;
          Alcotest.test_case "check strong" `Quick test_carving_check_strong;
          Alcotest.test_case "rejects adjacent clusters" `Quick
            test_carving_check_rejects_adjacent_clusters;
          Alcotest.test_case "rejects disconnected cluster" `Quick
            test_carving_check_rejects_disconnected_cluster;
          Alcotest.test_case "weak with steiner" `Quick
            test_carving_check_weak_with_steiner;
          Alcotest.test_case "empty domain" `Quick test_carving_empty_domain;
        ] );
      ( "decomposition",
        [
          Alcotest.test_case "valid" `Quick test_decomposition_valid;
          Alcotest.test_case "same color adjacent" `Quick
            test_decomposition_rejects_same_color_adjacent;
          Alcotest.test_case "unclustered" `Quick
            test_decomposition_rejects_unclustered;
          Alcotest.test_case "bounds" `Quick test_decomposition_bounds;
          Alcotest.test_case "quality" `Quick test_decomposition_quality;
          Alcotest.test_case "negative color" `Quick
            test_decomposition_rejects_negative_color;
          Alcotest.test_case "catches corruption" `Quick
            test_checker_catches_color_corruption;
          Alcotest.test_case "catches steiner corruption" `Quick
            test_checker_catches_steiner_corruption;
          Alcotest.test_case "catches membership corruption" `Quick
            test_checker_catches_membership_corruption;
        ] );
    ]
