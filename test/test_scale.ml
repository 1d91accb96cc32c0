(* Scale tests: the same invariants as the unit suites, on instances one to
   two orders of magnitude larger, so size-dependent bugs (overflow,
   quadratic blowups, recursion depth, accounting drift) surface. Each case
   is kept under a few seconds. *)

open Dsgraph
module Carving = Cluster.Carving
module Clustering = Cluster.Clustering
module Decomposition = Cluster.Decomposition

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let fail_on_error = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "checker rejected: %s" e

let test_thm23_path_8192 () =
  let g = Gen.path 8192 in
  let d = Strongdecomp.Netdecomp.strong g in
  fail_on_error (Decomposition.check d);
  let diam = Clustering.max_strong_diameter_estimate (Decomposition.clustering d) in
  check bool "clusters far below n" true (diam >= 1 && diam < 2048)

let test_thm34_path_4096 () =
  let g = Gen.path 4096 in
  let d = Strongdecomp.Netdecomp.strong_improved g in
  fail_on_error (Decomposition.check d);
  let d34 = Clustering.max_strong_diameter_estimate (Decomposition.clustering d) in
  (* the improved diameter stays near its n=1024 value (log^2-shaped) *)
  check bool "log^2-shaped diameter" true (d34 >= 1 && d34 <= 400)

let test_weak_carving_grid_4096 () =
  let g = Gen.grid 64 64 in
  List.iter
    (fun preset ->
      let r = Weakdiam.Weak_carving.carve ~preset g ~epsilon:0.5 in
      let b = Congest.Bits.id_bits ~n:4096 in
      fail_on_error
        (Carving.check_weak ~epsilon:0.5 ~steiner:r.forest
           ~congestion_bound:(b + 1) r.carving))
    [ Weakdiam.Weak_carving.Rg20; Weakdiam.Weak_carving.Ggr21 ]

let test_sparse_cut_path_10000 () =
  let g = Gen.path 10_000 in
  match
    Strongdecomp.Sparse_cut.(run ~epsilon:0.5 (scratch ())) g
      ~domain:(Array.init 10_000 Fun.id)
  with
  | Strongdecomp.Sparse_cut.Cut { v1; v2; removed } ->
      check int "partition" 10_000
        (Array.length v1 + Array.length v2 + Array.length removed);
      check bool "thin separator" true (Array.length removed <= 3)
  | Strongdecomp.Sparse_cut.Component _ ->
      Alcotest.fail "expected a cut on a long path"

let test_improve_barbell_2000 () =
  let g = Gen.barbell 900 200 in
  let carving =
    Carving.of_carver (Strongdecomp.Strong_carving.carve_improved ()) g
      ~epsilon:0.5
  in
  fail_on_error (Carving.check_strong ~epsilon:0.5 carving)

let test_mpx_expander_4096 () =
  let g = Gen.expander (Rng.create 2) 4096 in
  let carving = Carving.of_carver (Baseline.Mpx.carve (Rng.create 3)) g ~epsilon:0.5 in
  fail_on_error (Carving.check_strong ~epsilon:0.5 carving)

let test_ls_grid_4096 () =
  let g = Gen.grid 64 64 in
  let carving = Carving.of_carver (Baseline.Linial_saks.carve (Rng.create 4)) g ~epsilon:0.5 in
  fail_on_error (Carving.check_weak ~epsilon:0.5 carving)

let test_edge_carving_torus_4096 () =
  let g = Gen.torus 64 64 in
  let r = Strongdecomp.Edge_carving.carve g ~epsilon:0.25 in
  fail_on_error (Strongdecomp.Edge_carving.check r ~epsilon:0.25 g)

let test_barrier_8192 () =
  let g = Strongdecomp.Barrier.build (Rng.create 5) ~target_n:8192 in
  let a = Strongdecomp.Barrier.analyze ~epsilon:0.5 g in
  (* either branch must pay at its scale *)
  (match a.Strongdecomp.Barrier.outcome with
  | `Component ->
      check bool "diameter at the log^2 scale" true
        (float_of_int a.u_diameter >= 0.5 *. a.diameter_scale)
  | `Cut ->
      check bool "separator at the eps n/log n scale" true
        (float_of_int a.separator_size >= 0.2 *. a.separator_bound));
  check bool "size in range" true (a.Strongdecomp.Barrier.n > 4000)

let test_greedy_er_8192 () =
  let rng = Rng.create 6 in
  let g = Gen.ensure_connected rng (Gen.erdos_renyi rng 8192 (2.5 /. 8192.0)) in
  let d = Baseline.Greedy.decompose g in
  fail_on_error (Decomposition.check d)

let test_ls_distributed_400 () =
  let rng = Rng.create 7 in
  let g = Gen.ensure_connected rng (Gen.erdos_renyi rng 400 0.012) in
  let decomp, stats = Baseline.Ls_distributed.decompose (Rng.create 8) g in
  fail_on_error (Decomposition.check decomp);
  check bool "bandwidth respected end to end" true
    (stats.Baseline.Ls_distributed.max_bits <= Congest.Bits.bandwidth ~n:400)

let test_mis_grid_4096 () =
  let g = Gen.grid 64 64 in
  let mis, _ = Apps.Mis.run g in
  fail_on_error (Apps.Mis.check g mis)

let test_spanner_er_2048 () =
  let rng = Rng.create 9 in
  let g = Gen.ensure_connected rng (Gen.erdos_renyi rng 2048 (3.0 /. 2048.0)) in
  let spanner, _ = Apps.Spanner.run g in
  fail_on_error (Apps.Spanner.check g spanner)

let test_unknown_n_grid_2500 () =
  let g = Gen.grid 50 50 in
  let weak ?cost g ~domain ~epsilon =
    let r = Weakdiam.Weak_carving.carve_local ?cost g ~domain ~epsilon in
    {
      Strongdecomp.Transform.clusters = r.members;
      roots = r.roots;
      depth = r.max_depth;
      congestion = r.congestion;
    }
  in
  let carving =
    Carving.of_carver (Strongdecomp.Transform.strong_carve_unknown_n ~weak) g
      ~epsilon:0.5
  in
  fail_on_error (Carving.check_strong ~epsilon:0.5 carving)

let () =
  Alcotest.run "scale"
    [
      ( "scale",
        [
          Alcotest.test_case "thm2.3 path 8192" `Slow test_thm23_path_8192;
          Alcotest.test_case "thm3.4 path 4096" `Slow test_thm34_path_4096;
          Alcotest.test_case "weak carving grid 4096" `Slow
            test_weak_carving_grid_4096;
          Alcotest.test_case "sparse cut path 10000" `Slow
            test_sparse_cut_path_10000;
          Alcotest.test_case "improve barbell 2000" `Slow
            test_improve_barbell_2000;
          Alcotest.test_case "mpx expander 4096" `Slow test_mpx_expander_4096;
          Alcotest.test_case "linial-saks grid 4096" `Slow test_ls_grid_4096;
          Alcotest.test_case "edge carving torus 4096" `Slow
            test_edge_carving_torus_4096;
          Alcotest.test_case "barrier 8192" `Slow test_barrier_8192;
          Alcotest.test_case "greedy er 8192" `Slow test_greedy_er_8192;
          Alcotest.test_case "distributed ls 400" `Slow test_ls_distributed_400;
          Alcotest.test_case "mis grid 4096" `Slow test_mis_grid_4096;
          Alcotest.test_case "spanner er 2048" `Slow test_spanner_er_2048;
          Alcotest.test_case "unknown n grid 2500" `Slow
            test_unknown_n_grid_2500;
        ] );
    ]
