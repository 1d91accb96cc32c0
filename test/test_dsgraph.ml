open Dsgraph

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Reference implementations used as oracles                            *)
(* ------------------------------------------------------------------ *)

(* O(n^3) Floyd–Warshall distances as an oracle for BFS. *)
let reference_distances g =
  let n = Graph.n g in
  let inf = max_int / 4 in
  let d = Array.make_matrix n n inf in
  for v = 0 to n - 1 do
    d.(v).(v) <- 0
  done;
  Graph.iter_edges g (fun u v ->
      d.(u).(v) <- 1;
      d.(v).(u) <- 1);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) + d.(k).(j) < d.(i).(j) then
          d.(i).(j) <- d.(i).(k) + d.(k).(j)
      done
    done
  done;
  Array.map (Array.map (fun x -> if x >= inf then -1 else x)) d

let random_graph seed n p =
  let rng = Rng.create seed in
  Gen.erdos_renyi rng n p

(* ------------------------------------------------------------------ *)
(* Graph basics                                                        *)
(* ------------------------------------------------------------------ *)

let test_create_dedup () =
  let g =
    Graph.of_edge_seq ~n:4 (List.to_seq [ (0, 1); (1, 0); (0, 1); (2, 3) ])
  in
  check int "m" 2 (Graph.m g);
  check bool "edge 0-1" true (Graph.is_edge g 0 1);
  check bool "edge 1-0" true (Graph.is_edge g 1 0);
  check bool "edge 0-2" false (Graph.is_edge g 0 2)

let test_create_rejects_self_loop () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.Builder.add_edge: self-loop") (fun () ->
      ignore (Graph.of_edge_seq ~n:3 (List.to_seq [ (1, 1) ])))

let test_create_rejects_out_of_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.Builder.add_edge: endpoint out of range")
    (fun () -> ignore (Graph.of_edge_seq ~n:3 (List.to_seq [ (0, 3) ])))

let test_builder_incremental () =
  let b = Graph.Builder.create ~n:5 in
  Graph.Builder.add_edge b 4 0;
  Graph.Builder.add_edge b 0 4;
  Graph.Builder.add_edge b 2 1;
  let g = Graph.Builder.build b in
  check int "m" 2 (Graph.m g);
  check bool "0-4" true (Graph.is_edge g 0 4);
  check bool "1-2" true (Graph.is_edge g 1 2);
  Alcotest.check_raises "reuse"
    (Invalid_argument "Graph.Builder.build: already built") (fun () ->
      ignore (Graph.Builder.build b))

let test_builder_sized () =
  (* the sized constructor at capacity 0, 1, exactly the number of adds
     and above it builds the same graph as [create] *)
  let rng = Rng.create 17 in
  let n = 60 in
  let adds =
    List.filter_map
      (fun _ ->
        let u = Rng.int rng n and v = Rng.int rng n in
        if u = v then None else Some (u, v))
      (List.init 400 Fun.id)
  in
  let k = List.length adds in
  let build make =
    let b = make () in
    List.iter (fun (u, v) -> Graph.Builder.add_edge b u v) adds;
    Graph.Builder.build b
  in
  let expect = build (fun () -> Graph.Builder.create ~n) in
  List.iter
    (fun capacity ->
      let g = build (fun () -> Graph.Builder.create_sized ~n ~capacity) in
      check bool
        (Printf.sprintf "capacity %d of %d adds" capacity k)
        true (Graph.equal expect g))
    [ 0; 1; k; k + 1; 4 * k ];
  check int "empty at capacity 0" 0
    (Graph.m (Graph.Builder.build (Graph.Builder.create_sized ~n:3 ~capacity:0)));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Graph.Builder.create_sized: negative capacity")
    (fun () -> ignore (Graph.Builder.create_sized ~n:3 ~capacity:(-1)))

let test_degrees () =
  let g = Gen.star 5 in
  check int "center degree" 4 (Graph.degree g 0);
  check int "leaf degree" 1 (Graph.degree g 3);
  check int "max degree" 4 (Graph.max_degree g)

let test_edges_ordered () =
  let g = Graph.of_edge_seq ~n:4 (List.to_seq [ (3, 2); (1, 0); (2, 0) ]) in
  Alcotest.(check (list (pair int int)))
    "edges" [ (0, 1); (0, 2); (2, 3) ]
    (List.of_seq (Graph.edges_seq g))

let test_edge_index_distinct () =
  let g = Gen.grid 4 4 in
  let seen = Hashtbl.create 32 in
  Graph.iter_edges g (fun u v ->
      let i = Graph.edge_index g (u, v) in
      check bool "fresh index" false (Hashtbl.mem seen i);
      Hashtbl.add seen i ();
      check int "orientation independent" i (Graph.edge_index g (v, u)));
  check int "count" (Graph.m g) (Hashtbl.length seen)

let test_equal () =
  let a = Gen.cycle 5 and b = Gen.cycle 5 and c = Gen.path 5 in
  check bool "equal" true (Graph.equal a b);
  check bool "not equal" false (Graph.equal a c)

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

let test_gen_path () =
  let g = Gen.path 6 in
  check int "n" 6 (Graph.n g);
  check int "m" 5 (Graph.m g);
  check int "diameter" 5 (Bfs.eccentricity g 0)

let test_gen_cycle () =
  let g = Gen.cycle 8 in
  check int "m" 8 (Graph.m g);
  check int "regular" 2 (Graph.max_degree g);
  check int "ecc" 4 (Bfs.eccentricity g 0)

let test_gen_complete () =
  let g = Gen.complete 6 in
  check int "m" 15 (Graph.m g);
  check int "ecc" 1 (Bfs.eccentricity g 3)

let test_gen_grid () =
  let g = Gen.grid 3 4 in
  check int "n" 12 (Graph.n g);
  check int "m" ((2 * 4) + (3 * 3)) (Graph.m g);
  check int "corner-to-corner" 5 (Bfs.distances g ~source:0).(11)

let test_gen_torus () =
  let g = Gen.torus 4 4 in
  check int "n" 16 (Graph.n g);
  check int "4-regular" 4 (Graph.max_degree g);
  check int "m" 32 (Graph.m g)

let test_gen_binary_tree () =
  let g = Gen.binary_tree 7 in
  check int "m" 6 (Graph.m g);
  check bool "connected" true (Components.is_connected g)

let test_gen_hypercube () =
  let g = Gen.hypercube 4 in
  check int "n" 16 (Graph.n g);
  check int "m" 32 (Graph.m g);
  check int "diameter" 4 (Bfs.eccentricity g 0)

let test_gen_random_tree () =
  let g = Gen.random_tree (Rng.create 7) 40 in
  check int "m" 39 (Graph.m g);
  check bool "connected" true (Components.is_connected g)

let test_gen_random_regular_even () =
  let g = Gen.random_regular (Rng.create 3) 20 3 in
  check int "n" 20 (Graph.n g);
  List.iter (fun v -> check int "degree 3" 3 (Graph.degree g v)) (Graph.nodes g)

let test_gen_random_regular_odd_n_even_d () =
  let g = Gen.random_regular (Rng.create 3) 21 4 in
  List.iter (fun v -> check int "degree 4" 4 (Graph.degree g v)) (Graph.nodes g)

let test_gen_expander_connected () =
  let g = Gen.expander (Rng.create 11) 64 in
  check bool "connected" true (Components.is_connected g);
  check int "4-regular" 4 (Graph.max_degree g)

let test_gen_subdivide () =
  let g = Gen.cycle 4 in
  let s = Gen.subdivide g 3 in
  check int "n" (4 + (4 * 3)) (Graph.n s);
  check int "m" (4 * 4) (Graph.m s);
  check bool "connected" true (Components.is_connected s);
  check int "2-regular" 2 (Graph.max_degree s);
  (* original nodes keep ids: node 0 and 1 now at distance 4 *)
  check int "stretched distance" 4 (Bfs.distances s ~source:0).(1)

let test_gen_subdivide_zero () =
  let g = Gen.grid 3 3 in
  check bool "identity" true (Graph.equal g (Gen.subdivide g 0))

let test_gen_ring_of_cliques () =
  let g = Gen.ring_of_cliques 4 5 in
  check int "n" 20 (Graph.n g);
  check bool "connected" true (Components.is_connected g);
  check int "m" ((4 * 10) + 4) (Graph.m g)

let test_gen_barbell () =
  let g = Gen.barbell 4 3 in
  check int "n" 11 (Graph.n g);
  check bool "connected" true (Components.is_connected g);
  (* 0 -> 3 -> 4 -> 5 -> 6 -> 7 -> 10 *)
  check int "cross distance" 6 (Bfs.distances g ~source:0).(10)

let test_gen_lollipop () =
  let g = Gen.lollipop 5 4 in
  check int "n" 9 (Graph.n g);
  check bool "connected" true (Components.is_connected g)

let test_gen_caterpillar () =
  let g = Gen.caterpillar (Rng.create 5) 10 15 in
  check int "n" 25 (Graph.n g);
  check int "m (tree)" 24 (Graph.m g);
  check bool "connected" true (Components.is_connected g)

let test_gen_planted_partition () =
  let g = Gen.planted_partition (Rng.create 5) 3 10 0.9 0.05 in
  check int "n" 30 (Graph.n g)

let test_gen_disjoint_union () =
  let g = Gen.disjoint_union (Gen.path 3) (Gen.cycle 3) in
  check int "n" 6 (Graph.n g);
  check int "m" 5 (Graph.m g);
  check bool "disconnected" false (Components.is_connected g)

let test_gen_ensure_connected () =
  let rng = Rng.create 9 in
  let g = Gen.disjoint_union (Gen.path 3) (Gen.cycle 4) in
  let g = Gen.ensure_connected rng g in
  check bool "connected" true (Components.is_connected g)

(* ------------------------------------------------------------------ *)
(* BFS                                                                  *)
(* ------------------------------------------------------------------ *)

let test_bfs_matches_floyd_warshall () =
  List.iter
    (fun seed ->
      let g = random_graph seed 24 0.12 in
      let ref_d = reference_distances g in
      for s = 0 to Graph.n g - 1 do
        let d = Bfs.distances g ~source:s in
        for v = 0 to Graph.n g - 1 do
          check int (Printf.sprintf "d(%d,%d) seed %d" s v seed) ref_d.(s).(v)
            d.(v)
        done
      done)
    [ 1; 2; 3 ]

let test_bfs_mask_blocks () =
  let g = Gen.path 5 in
  let mask = Mask.of_list 5 [ 0; 1; 3; 4 ] in
  let d = Bfs.distances ~mask g ~source:0 in
  check int "reaches 1" 1 d.(1);
  check int "blocked" (-1) d.(3);
  check int "masked-out source side" (-1) d.(4)

let test_bfs_multi_source () =
  let g = Gen.path 7 in
  let d = Bfs.multi_distances g ~sources:[ 0; 6 ] in
  check int "middle" 3 d.(3);
  check int "near left" 1 d.(1);
  check int "near right" 1 d.(5)

let test_bfs_parents_form_tree () =
  let g = random_graph 4 30 0.15 in
  let p = Bfs.parents g ~source:0 in
  let d = Bfs.distances g ~source:0 in
  check int "source parent" 0 p.(0);
  for v = 1 to Graph.n g - 1 do
    if d.(v) >= 0 then begin
      check bool "parent is edge" true (Graph.is_edge g v p.(v));
      check int "parent one closer" (d.(v) - 1) d.(p.(v))
    end
    else check int "unreachable has no parent" (-1) p.(v)
  done

let test_diameter_of_set () =
  let g = Gen.path 10 in
  check int "sub-path" 3 (Bfs.diameter_of_set g [ 2; 3; 4; 5 ]);
  check int "disconnected" (-1) (Bfs.diameter_of_set g [ 0; 1; 5; 6 ]);
  check int "singleton" 0 (Bfs.diameter_of_set g [ 4 ]);
  check int "empty" 0 (Bfs.diameter_of_set g [])

let test_weak_vs_strong_diameter () =
  (* star: leaves are pairwise non-adjacent; induced subgraph on leaves is
     disconnected but weak diameter through the hub is 2 *)
  let g = Gen.star 6 in
  let leaves = [ 1; 2; 3; 4; 5 ] in
  check int "strong disconnected" (-1) (Bfs.diameter_of_set g leaves);
  check int "weak via hub" 2 (Bfs.weak_diameter_of_set g leaves)

(* ------------------------------------------------------------------ *)
(* Components                                                           *)
(* ------------------------------------------------------------------ *)

let test_components_basic () =
  let g = Gen.disjoint_union (Gen.cycle 3) (Gen.path 4) in
  let comps = Components.components g in
  check int "count" 2 (List.length comps);
  check bool "connected check" false (Components.is_connected g)

let test_components_mask () =
  let g = Gen.path 6 in
  let mask = Mask.of_list 6 [ 0; 1; 3; 4; 5 ] in
  let comps = Components.components ~mask g in
  check int "two pieces" 2 (List.length comps);
  Alcotest.(check (list int)) "largest" [ 3; 4; 5 ] (Components.largest ~mask g)

let test_component_ids_cover () =
  let g = random_graph 8 40 0.05 in
  let ids, k = Components.component_ids g in
  Array.iter (fun id -> check bool "in range" true (id >= 0 && id < k)) ids;
  Graph.iter_edges g (fun u v -> check int "edge same comp" ids.(u) ids.(v))

(* ------------------------------------------------------------------ *)
(* Power graphs                                                        *)
(* ------------------------------------------------------------------ *)

let test_power_path () =
  let g = Gen.path 6 in
  let g2 = Power.power g 2 in
  check bool "0-2" true (Graph.is_edge g2 0 2);
  check bool "0-1 kept" true (Graph.is_edge g2 0 1);
  check bool "0-3 absent" false (Graph.is_edge g2 0 3)

let test_power_matches_distances () =
  let g = random_graph 5 20 0.1 in
  let k = 3 in
  let gk = Power.power g k in
  let ref_d = reference_distances g in
  for u = 0 to Graph.n g - 1 do
    for v = u + 1 to Graph.n g - 1 do
      let expected = ref_d.(u).(v) >= 1 && ref_d.(u).(v) <= k in
      check bool
        (Printf.sprintf "power edge %d-%d" u v)
        expected (Graph.is_edge gk u v)
    done
  done

let test_power_one_is_identity () =
  let g = random_graph 6 15 0.2 in
  check bool "G^1 = G" true (Graph.equal g (Power.power g 1))

(* ------------------------------------------------------------------ *)
(* Mask                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mask_ops () =
  let m = Mask.of_list 10 [ 1; 3; 5 ] in
  check int "count" 3 (Mask.count m);
  Mask.add m 7;
  Mask.add m 7;
  check int "idempotent add" 4 (Mask.count m);
  Mask.remove m 1;
  Mask.remove m 1;
  check int "idempotent remove" 3 (Mask.count m);
  Alcotest.(check (list int)) "to_list" [ 3; 5; 7 ] (Mask.to_list m)

let test_mask_set_ops () =
  let a = Mask.of_list 6 [ 0; 1; 2; 3 ] in
  let b = Mask.of_list 6 [ 2; 3; 4 ] in
  Alcotest.(check (list int)) "inter" [ 2; 3 ] (Mask.to_list (Mask.inter a b));
  Alcotest.(check (list int)) "diff" [ 0; 1 ] (Mask.to_list (Mask.diff a b));
  check bool "subset no" false (Mask.subset a b);
  check bool "subset yes" true (Mask.subset (Mask.of_list 6 [ 2 ]) b)

(* ------------------------------------------------------------------ *)
(* Subgraph                                                             *)
(* ------------------------------------------------------------------ *)

let test_subgraph_induce_basic () =
  let g = Gen.cycle 6 in
  let h, back = Subgraph.induce g [ 0; 1; 2; 4 ] in
  check int "n" 4 (Graph.n h);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 2; 4 |] back;
  (* surviving edges: (0,1), (1,2); node 4's neighbors 3 and 5 are gone *)
  check int "m" 2 (Graph.m h);
  check bool "0-1" true (Graph.is_edge h 0 1);
  check bool "4 isolated" true (Graph.degree h 3 = 0)

let test_subgraph_induce_rejects_bad () =
  let g = Gen.path 4 in
  Alcotest.check_raises "dup" (Invalid_argument "Subgraph.induce: duplicate nodes")
    (fun () -> ignore (Subgraph.induce g [ 1; 1 ]));
  Alcotest.check_raises "range"
    (Invalid_argument "Subgraph.induce: node out of range") (fun () ->
      ignore (Subgraph.induce g [ 7 ]))

let test_subgraph_induce_block () =
  let g = Gen.grid 4 4 in
  let h, back = Subgraph.induce g [ 0; 1; 4; 5 ] in
  check int "n" 4 (Graph.n h);
  check int "m (2x2 block)" 4 (Graph.m h);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 4; 5 |] back

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let test_metrics_cut () =
  let g = Gen.path 4 in
  let s = Mask.of_list 4 [ 0; 1 ] in
  check int "cut" 1 (Metrics.cut_edges g s);
  check int "volume" 3 (Metrics.volume g s);
  Alcotest.(check (list int)) "boundary" [ 2 ] (Metrics.node_boundary g s)

let test_metrics_conductance () =
  let g = Gen.complete 4 in
  let s = Mask.of_list 4 [ 0; 1 ] in
  (* cut = 4, vol = 6 *)
  check (Alcotest.float 1e-9) "phi" (4.0 /. 6.0) (Metrics.conductance_of_set g s)

let test_metrics_sweep () =
  (* barbell has a very sparse middle cut; sweep from inside one clique
     must find it *)
  let g = Gen.barbell 8 4 in
  let phi = Metrics.sweep_conductance g ~source:0 in
  check bool "finds sparse cut" true (phi < 0.05)

let test_metrics_average_degree () =
  check (Alcotest.float 1e-9) "cycle" 2.0 (Metrics.average_degree (Gen.cycle 7))

let test_metrics_histogram () =
  let g = Gen.star 4 in
  Alcotest.(check (list (pair int int)))
    "hist" [ (1, 3); (3, 1) ] (Metrics.degree_histogram g)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 50 do
    check int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    check bool "in range" true (x >= 0 && x < 7)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  check bool "streams differ" true (xs <> ys)

let test_rng_permutation () =
  let p = Rng.permutation (Rng.create 3) 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_exponential_positive () =
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    check bool "nonneg" true (Rng.exponential rng 0.5 >= 0.0)
  done

let test_rng_geometric_mean () =
  let rng = Rng.create 5 in
  let k = 20000 in
  let sum = ref 0 in
  for _ = 1 to k do
    sum := !sum + Rng.geometric rng 0.5
  done;
  let mean = float_of_int !sum /. float_of_int k in
  (* E[failures before success] = (1-p)/p = 1 *)
  check bool "mean near 1" true (abs_float (mean -. 1.0) < 0.1)

(* The allocation-free Rng against the boxed oracle in rng_ref.ml: a
   random seed and a random mix of every draw must give the same values,
   bit for bit, in the same order. *)
type rng_op =
  | Op_int of int
  | Op_int64
  | Op_float of float
  | Op_bits53
  | Op_bool
  | Op_bernoulli of float
  | Op_exponential of float
  | Op_geometric of float
  | Op_split
  | Op_permutation of int

let two53 = 9007199254740992.0

(* the probabilities where a threshold could go wrong *)
let special_ps =
  [
    0.0; -0.0; -1.0; 1.0; 2.0; Float.nan; Float.infinity;
    Float.neg_infinity; 4.9e-324; Float.min_float /. 2.0; Float.min_float;
    Float.epsilon; 1.0 -. Float.epsilon; Float.pred 1.0; 0.5; 1.0 /. two53;
    Float.max_float;
  ]

let gen_rng_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun b -> Op_int b) (oneof [ int_range 1 10; int_range 1 max_int ]));
        (1, return Op_int64);
        (2, map (fun x -> Op_float x) (float_range (-10.0) 1e6));
        (3, return Op_bits53);
        (1, return Op_bool);
        ( 4,
          map
            (fun p -> Op_bernoulli p)
            (oneof [ float_range 0.0 1.0; oneofl special_ps ]) );
        (1, map (fun r -> Op_exponential r) (float_range 0.01 10.0));
        (1, map (fun p -> Op_geometric p) (float_range 0.01 1.0));
        (1, return Op_split);
        (1, map (fun k -> Op_permutation k) (int_range 0 20));
      ])

let show_rng_op = function
  | Op_int b -> Printf.sprintf "int %d" b
  | Op_int64 -> "int64"
  | Op_float x -> Printf.sprintf "float %h" x
  | Op_bits53 -> "bits53"
  | Op_bool -> "bool"
  | Op_bernoulli p -> Printf.sprintf "bernoulli %h" p
  | Op_exponential r -> Printf.sprintf "exponential %h" r
  | Op_geometric p -> Printf.sprintf "geometric %h" p
  | Op_split -> "split"
  | Op_permutation k -> Printf.sprintf "permutation %d" k

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

(* one op on both generators; a split continues on the children, so
   the split streams are compared too *)
let step_both (a, b) op =
  match op with
  | Op_int bound -> (Rng.int a bound = Rng_ref.int b bound, (a, b))
  | Op_int64 -> (Rng.int64 a = Rng_ref.int64 b, (a, b))
  | Op_float x -> (same_float (Rng.float a x) (Rng_ref.float b x), (a, b))
  | Op_bits53 ->
      ( Rng.bits53 a
        = Int64.to_int (Int64.shift_right_logical (Rng_ref.int64 b) 11),
        (a, b) )
  | Op_bool -> (Rng.bool a = Rng_ref.bool b, (a, b))
  | Op_bernoulli p -> (Rng.bernoulli a p = (Rng_ref.float b 1.0 < p), (a, b))
  | Op_exponential r ->
      (same_float (Rng.exponential a r) (Rng_ref.exponential b r), (a, b))
  | Op_geometric p -> (Rng.geometric a p = Rng_ref.geometric b p, (a, b))
  | Op_split -> (true, (Rng.split a, Rng_ref.split b))
  | Op_permutation k -> (Rng.permutation a k = Rng_ref.permutation b k, (a, b))

let prop_rng_matches_reference =
  let arb =
    QCheck.make
      ~print:(fun (seed, ops) ->
        Printf.sprintf "seed %d: %s" seed
          (String.concat "; " (List.map show_rng_op ops)))
      QCheck.Gen.(
        pair
          (oneof [ int_range (-1000) 1000; int_range min_int max_int ])
          (list_size (int_range 1 200) gen_rng_op))
  in
  QCheck.Test.make ~name:"rng equals the boxed reference, draw for draw"
    ~count:300 arb (fun (seed, ops) ->
      let rec go pair = function
        | [] -> true
        | op :: rest ->
            let ok, pair = step_both pair op in
            ok && go pair rest
      in
      go (Rng.create seed, Rng_ref.create seed) ops)

let test_rng_bernoulli_at_the_boundary () =
  (* p exactly at the next draw's value, and one ulp either side: the
     integer threshold must cut where the float comparison does *)
  for seed = 0 to 199 do
    let bits = Rng.bits53 (Rng.create seed) in
    let r = float_of_int bits /. two53 in
    List.iter
      (fun p ->
        let fresh = Rng_ref.create seed in
        let expect = Rng_ref.float fresh 1.0 < p in
        check bool
          (Printf.sprintf "seed %d, p = %h" seed p)
          expect
          (Rng.bernoulli (Rng.create seed) p))
      [ r; Float.succ r; Float.pred r ]
  done;
  List.iter
    (fun p ->
      let t = Rng.threshold p in
      check bool (Printf.sprintf "threshold %h in range" p) true
        (t >= 0 && t <= 1 lsl 53))
    special_ps

(* the test_trace pattern: warm once, then count a second run's words *)
let minor_words_of f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_rng_draws_allocation_free () =
  let rng = Rng.create 11 in
  let sink = ref 0 in
  let draws name draw =
    let words =
      minor_words_of (fun () ->
          for _ = 1 to 100_000 do
            sink := !sink lxor draw ()
          done)
    in
    check bool
      (Printf.sprintf "10^5 %s draws allocate nothing (%.0f words)" name words)
      true (words < 64.0)
  in
  draws "int" (fun () -> Rng.int rng 1000);
  draws "bits53" (fun () -> Rng.bits53 rng);
  draws "bernoulli" (fun () -> Bool.to_int (Rng.bernoulli rng 0.3));
  ignore (Sys.opaque_identity !sink)

let test_rmat_allocation_per_sample () =
  let samples = 50_000 in
  let words =
    minor_words_of (fun () ->
        ignore (Gen.rmat (Rng.create 3) ~n:4096 ~m:samples))
  in
  check bool
    (Printf.sprintf "rmat minor words per sample %.3f < 1"
       (words /. float_of_int samples))
    true
    (words < float_of_int samples)

(* ------------------------------------------------------------------ *)
(* Property tests                                                       *)
(* ------------------------------------------------------------------ *)

let arb_graph =
  QCheck.make
    ~print:(fun (seed, n, pct) -> Printf.sprintf "seed=%d n=%d p=%d%%" seed n pct)
    QCheck.Gen.(
      triple (int_bound 10_000) (int_range 2 40) (int_range 0 40))

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"bfs distances satisfy edge triangle inequality"
    ~count:60 arb_graph (fun (seed, n, pct) ->
      let g = random_graph seed n (float_of_int pct /. 100.0) in
      let d = Bfs.distances g ~source:0 in
      Graph.fold_edges g ~init:true ~f:(fun ok u v ->
          (* adjacent nodes are both reachable or both not, and their
             distances differ by at most one *)
          ok
          && (d.(u) >= 0) = (d.(v) >= 0)
          && (d.(u) < 0 || abs (d.(u) - d.(v)) <= 1)))

let prop_components_partition =
  QCheck.Test.make ~name:"components partition the node set" ~count:60 arb_graph
    (fun (seed, n, pct) ->
      let g = random_graph seed n (float_of_int pct /. 100.0) in
      let all = List.concat (Components.components g) in
      List.sort compare all = Graph.nodes g)

let prop_subdivide_preserves_components =
  QCheck.Test.make ~name:"subdivision preserves component count" ~count:40
    arb_graph (fun (seed, n, pct) ->
      let g = random_graph seed n (float_of_int pct /. 100.0) in
      let _, k = Components.component_ids g in
      let isolated =
        List.length (List.filter (fun v -> Graph.degree g v = 0) (Graph.nodes g))
      in
      let s = Gen.subdivide g 2 in
      let _, k' = Components.component_ids s in
      (* isolated nodes stay isolated; others keep their components *)
      k' = k && isolated <= k)

let prop_subgraph_distances_dominate =
  QCheck.Test.make ~name:"induced distances dominate original distances"
    ~count:40 arb_graph (fun (seed, n, pct) ->
      let g = random_graph seed n (float_of_int pct /. 100.0) in
      let keep = List.filter (fun v -> v mod 2 = 0) (Graph.nodes g) in
      match keep with
      | [] -> true
      | src :: _ ->
          let h, back = Subgraph.induce g keep in
          let dh = Bfs.distances h ~source:0 in
          let dg = Bfs.distances g ~source:src in
          List.for_all
            (fun i -> dh.(i) = -1 || dh.(i) >= dg.(back.(i)))
            (Graph.nodes h))

(* The construction [Subgraph.induce] had before it wrote its CSR
   directly: a Hashtbl forward map and a Graph.Builder. *)
let induce_reference g nodes =
  let n = Graph.n g in
  let sorted = List.sort_uniq compare nodes in
  if List.length sorted <> List.length nodes then
    invalid_arg "Subgraph.induce: duplicate nodes";
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Subgraph.induce: node out of range")
    sorted;
  let back = Array.of_list sorted in
  let fwd = Hashtbl.create (Array.length back) in
  Array.iteri (fun i v -> Hashtbl.replace fwd v i) back;
  let b = Graph.Builder.create ~n:(Array.length back) in
  Array.iteri
    (fun i v ->
      Graph.iter_neighbors g v (fun w ->
          if w > v then
            match Hashtbl.find_opt fwd w with
            | Some j -> Graph.Builder.add_edge b i j
            | None -> ()))
    back;
  (Graph.Builder.build b, back)

(* ER, grid and RMAT graphs; node lists empty, one node, all nodes, or
   a random subset in random order, some with a repeated or an
   out-of-range node added (both sides must raise the same message) *)
let prop_induce_matches_builder =
  QCheck.Test.make ~name:"Subgraph.induce equals the Graph.Builder construction"
    ~count:200
    (QCheck.make
       ~print:(fun (seed, family, shape, bad) ->
         Printf.sprintf "seed=%d family=%d shape=%d bad=%d" seed family shape
           bad)
       QCheck.Gen.(
         quad (int_bound 10_000) (int_range 0 2) (int_range 0 3)
           (int_range 0 5)))
    (fun (seed, family, shape, bad) ->
      let rng = Rng.create seed in
      let g =
        match family with
        | 0 -> Gen.erdos_renyi rng (2 + Rng.int rng 60) 0.1
        | 1 -> Gen.grid (1 + Rng.int rng 12) (1 + Rng.int rng 12)
        | _ -> Gen.rmat rng ~n:256 ~m:1024
      in
      let n = Graph.n g in
      let nodes =
        match shape with
        | 0 -> []
        | 1 -> [ Rng.int rng n ]
        | 2 -> Graph.nodes g
        | _ ->
            let keep =
              List.filter (fun _ -> Rng.int rng 3 = 0) (Graph.nodes g)
            in
            let a = Array.of_list keep in
            for i = Array.length a - 1 downto 1 do
              let j = Rng.int rng (i + 1) in
              let t = a.(i) in
              a.(i) <- a.(j);
              a.(j) <- t
            done;
            Array.to_list a
      in
      let nodes =
        match (bad, nodes) with
        | 0, v :: _ -> v :: nodes
        | 1, _ -> nodes @ [ n + Rng.int rng 3 ]
        | 2, _ -> -1 :: nodes
        | _ -> nodes
      in
      let run f = try Ok (f g nodes) with Invalid_argument e -> Error e in
      match (run Subgraph.induce, run induce_reference) with
      | Ok (h, back), Ok (h', back') -> Graph.equal h h' && back = back'
      | Error e, Error e' -> e = e'
      | _ -> false)

let prop_power_monotone =
  QCheck.Test.make ~name:"G^k edges grow with k" ~count:30 arb_graph
    (fun (seed, n, pct) ->
      let g = random_graph seed n (float_of_int pct /. 100.0) in
      Graph.m (Power.power g 2) <= Graph.m (Power.power g 3))

(* One scratch serves every search. Each must reach the masked
   reference BFS's set at its distances, give every reached node except
   the source the min-id neighbour one layer up as parent (recomputed
   here from Bfs.distances ~mask alone), list the reached set in
   non-decreasing distance order, and leave every dist cell at -1 after
   release. Besides random graphs of density 0-40% (as arb_graph) the
   generator draws hub graphs — a star with >= 1,000 leaves and an
   RMAT 2^10 — whose frontiers outweigh the rest, so pull steps run. *)
let restricted_gen =
  QCheck.Gen.(
    quad (int_bound 10_000) (int_range 0 2) (int_range 2 40) (int_range 0 40))

let restricted_graph seed family n pct =
  match family with
  | 0 -> random_graph seed n (float_of_int pct /. 100.0)
  | 1 -> Gen.star (1_000 + (seed / 4 mod 64))
  | _ -> Gen.rmat (Rng.create seed) ~n:1024 ~m:(4096 * (1 + (pct mod 4)))

let min_parent_reference g dist v =
  let up = dist.(v) - 1 in
  List.find (fun u -> dist.(u) = up) (Array.to_list (Graph.neighbors g v))

let prop_restricted_into_matches_masked =
  QCheck.Test.make
    ~name:"restricted_into equals masked distances and parents" ~count:180
    (QCheck.make
       ~print:(fun (seed, family, n, pct) ->
         Printf.sprintf "seed=%d family=%d n=%d p=%d%%" seed family n pct)
       restricted_gen)
    (fun (seed, family, n, pct) ->
      let g = restricted_graph seed family n pct in
      let n = Graph.n g in
      let classes = 1 + (seed mod 4) in
      let owner = Array.init n (fun v -> (((v * 7) + seed) mod classes) - 1) in
      let members_of = Array.make classes [] in
      for v = n - 1 downto 0 do
        members_of.(owner.(v) + 1) <- v :: members_of.(owner.(v) + 1)
      done;
      let sources =
        if family = 0 then Graph.nodes g
        else
          let rng = Rng.create seed in
          0 :: List.init 12 (fun _ -> Rng.int rng n)
      in
      let s = Bfs.scratch n in
      List.for_all
        (fun source ->
          let id = owner.(source) in
          let members = members_of.(id + 1) in
          let mask = Mask.of_list n members in
          let dist = Bfs.distances ~mask g ~source in
          let k = Bfs.restricted_into g ~owner ~id ~members ~source s in
          let reached = List.filter (fun v -> dist.(v) >= 0) (Graph.nodes g) in
          let order = Array.sub s.Bfs.queue 0 k in
          let ok =
            k = List.length reached
            && List.for_all (fun v -> s.Bfs.dist.(v) = dist.(v)) reached
            && s.Bfs.parent.(source) = source
            && List.for_all
                 (fun v ->
                   v = source
                   || s.Bfs.parent.(v) = min_parent_reference g dist v)
                 reached
            && List.for_all
                 (fun v -> dist.(v) >= 0 || s.Bfs.dist.(v) = -1)
                 (Graph.nodes g)
            && List.sort compare (Array.to_list order) = reached
            && Array.for_all Fun.id
                 (Array.init (max 0 (k - 1)) (fun i ->
                      dist.(order.(i)) <= dist.(order.(i + 1))))
          in
          Bfs.release s k;
          ok
          && Array.for_all (fun d -> d = -1) s.Bfs.dist
          && Bfs.restricted_into g ~owner ~id:(id + 10) ~members:[] ~source s
             = 0)
        sources)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_restricted_into_matches_masked;
      prop_bfs_triangle_inequality;
      prop_components_partition;
      prop_subdivide_preserves_components;
      prop_subgraph_distances_dominate;
      prop_induce_matches_builder;
      prop_power_monotone;
    ]

let () =
  Alcotest.run "dsgraph"
    [
      ( "graph",
        [
          Alcotest.test_case "create dedups" `Quick test_create_dedup;
          Alcotest.test_case "rejects self loop" `Quick
            test_create_rejects_self_loop;
          Alcotest.test_case "rejects out of range" `Quick
            test_create_rejects_out_of_range;
          Alcotest.test_case "degrees" `Quick test_degrees;
          Alcotest.test_case "edges ordered" `Quick test_edges_ordered;
          Alcotest.test_case "edge_index distinct" `Quick
            test_edge_index_distinct;
          Alcotest.test_case "builder incremental" `Quick
            test_builder_incremental;
          Alcotest.test_case "builder sized" `Quick test_builder_sized;
          Alcotest.test_case "equal" `Quick test_equal;
        ] );
      ( "gen",
        [
          Alcotest.test_case "path" `Quick test_gen_path;
          Alcotest.test_case "cycle" `Quick test_gen_cycle;
          Alcotest.test_case "complete" `Quick test_gen_complete;
          Alcotest.test_case "grid" `Quick test_gen_grid;
          Alcotest.test_case "torus" `Quick test_gen_torus;
          Alcotest.test_case "binary tree" `Quick test_gen_binary_tree;
          Alcotest.test_case "hypercube" `Quick test_gen_hypercube;
          Alcotest.test_case "random tree" `Quick test_gen_random_tree;
          Alcotest.test_case "random regular (even n)" `Quick
            test_gen_random_regular_even;
          Alcotest.test_case "random regular (odd n, even d)" `Quick
            test_gen_random_regular_odd_n_even_d;
          Alcotest.test_case "expander connected" `Quick
            test_gen_expander_connected;
          Alcotest.test_case "subdivide" `Quick test_gen_subdivide;
          Alcotest.test_case "subdivide zero" `Quick test_gen_subdivide_zero;
          Alcotest.test_case "ring of cliques" `Quick test_gen_ring_of_cliques;
          Alcotest.test_case "barbell" `Quick test_gen_barbell;
          Alcotest.test_case "lollipop" `Quick test_gen_lollipop;
          Alcotest.test_case "caterpillar" `Quick test_gen_caterpillar;
          Alcotest.test_case "planted partition" `Quick
            test_gen_planted_partition;
          Alcotest.test_case "disjoint union" `Quick test_gen_disjoint_union;
          Alcotest.test_case "ensure connected" `Quick test_gen_ensure_connected;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "matches Floyd-Warshall" `Quick
            test_bfs_matches_floyd_warshall;
          Alcotest.test_case "mask blocks" `Quick test_bfs_mask_blocks;
          Alcotest.test_case "multi source" `Quick test_bfs_multi_source;
          Alcotest.test_case "parents form tree" `Quick
            test_bfs_parents_form_tree;
          Alcotest.test_case "diameter of set" `Quick test_diameter_of_set;
          Alcotest.test_case "weak vs strong diameter" `Quick
            test_weak_vs_strong_diameter;
        ] );
      ( "components",
        [
          Alcotest.test_case "basic" `Quick test_components_basic;
          Alcotest.test_case "mask" `Quick test_components_mask;
          Alcotest.test_case "ids cover" `Quick test_component_ids_cover;
        ] );
      ( "power",
        [
          Alcotest.test_case "path" `Quick test_power_path;
          Alcotest.test_case "matches distances" `Quick
            test_power_matches_distances;
          Alcotest.test_case "identity" `Quick test_power_one_is_identity;
        ] );
      ( "subgraph",
        [
          Alcotest.test_case "induce basic" `Quick test_subgraph_induce_basic;
          Alcotest.test_case "rejects bad input" `Quick
            test_subgraph_induce_rejects_bad;
          Alcotest.test_case "induce 2x2 block" `Quick
            test_subgraph_induce_block;
        ] );
      ( "mask",
        [
          Alcotest.test_case "ops" `Quick test_mask_ops;
          Alcotest.test_case "set ops" `Quick test_mask_set_ops;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "cut" `Quick test_metrics_cut;
          Alcotest.test_case "conductance" `Quick test_metrics_conductance;
          Alcotest.test_case "sweep" `Quick test_metrics_sweep;
          Alcotest.test_case "average degree" `Quick test_metrics_average_degree;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "exponential positive" `Quick
            test_rng_exponential_positive;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "bernoulli at the boundary" `Quick
            test_rng_bernoulli_at_the_boundary;
          Alcotest.test_case "draws allocation-free" `Quick
            test_rng_draws_allocation_free;
          Alcotest.test_case "rmat under a word per sample" `Quick
            test_rmat_allocation_per_sample;
          QCheck_alcotest.to_alcotest prop_rng_matches_reference;
        ] );
      ("properties", qcheck_cases);
    ]
