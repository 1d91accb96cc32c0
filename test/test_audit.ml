(* Tests for Workload.Audit: per-cluster quality certificates and their
   independent re-verification against the raw graph.

   The certificates of honest runs must verify; the load-bearing tests
   seed corruptions — a wrong diameter witness, overlapping colors,
   miscounted dead nodes, and structural tampering — and assert that
   [Audit.verify] rejects every one. The verifier only consults the
   graph, so these rejections hold no matter which algorithm produced
   the certificate. *)

module Audit = Workload.Audit
open Dsgraph

let check = Alcotest.check
let bool = Alcotest.bool

(* abcp96 on grid64 yields many clusters over 2 colors, several with
   more than one member — enough structure for every corruption below
   (the paper's own algorithms often cover small grids with a single
   cluster, which would leave the adjacency corruptions nothing to
   corrupt) *)
let decomp_fixture =
  lazy
    (let d = Workload.Algorithms.find_decomposer "abcp96" in
     let _, decomp, g =
       Workload.Measure.decomposition_result d Workload.Suite.grid ~n:64
     in
     (Audit.certify_decomposition decomp, g))

let carve_fixture =
  lazy
    (let c = Workload.Algorithms.find_carver "thm2.2" in
     let _, carving, g =
       Workload.Measure.carving_result c Workload.Suite.grid ~n:64
         ~epsilon:0.25
     in
     (Audit.certify_carving carving, g))

let is_ok = function Ok () -> true | Error _ -> false

let expect_reject what g t =
  match Audit.verify g t with
  | Ok () -> Alcotest.failf "corruption not rejected: %s" what
  | Error _ -> ()

(* rebuild the audit with cluster [i]'s certificate transformed *)
let tamper t i f =
  {
    t with
    Audit.certs =
      List.map
        (fun (c : Audit.cert) -> if c.Audit.cluster = i then f c else c)
        t.Audit.certs;
  }

let test_honest_decomposition_verifies () =
  let t, g = Lazy.force decomp_fixture in
  (match Audit.verify g t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest decomposition rejected: %s" e);
  check bool "has clusters" true (t.Audit.certs <> []);
  check bool "decompositions leave nobody dead" true (t.Audit.dead = 0);
  check bool "bounds are consistent" true
    (match Audit.max_diameter_ub t with
    | Some ub -> Audit.max_diameter_lb t <= ub
    | None -> false)

let test_honest_carving_verifies () =
  let t, g = Lazy.force carve_fixture in
  (match Audit.verify g t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest carving rejected: %s" e);
  List.iter
    (fun (c : Audit.cert) ->
      check bool "carved clusters carry no colors" true (c.Audit.color = -1))
    t.Audit.certs

(* corruption 1: wrong diameter witness — inflate the claimed height
   (and the upper bound consistently); the verifier recomputes depths
   from the parent pointers and must notice *)
let test_rejects_wrong_witness_height () =
  let t, g = Lazy.force decomp_fixture in
  let big =
    List.find
      (fun (c : Audit.cert) -> List.length c.Audit.members > 1)
      t.Audit.certs
  in
  let bad =
    tamper t big.Audit.cluster (fun c ->
        match c.Audit.tree with
        | Some w ->
            let w = { w with Audit.w_height = w.Audit.w_height + 1 } in
            {
              c with
              Audit.tree = Some w;
              diameter_ub = Some (2 * w.Audit.w_height);
            }
        | None -> c)
  in
  expect_reject "inflated witness height" g bad

(* corruption 1b: tampered eccentric pair — the claimed lower bound no
   longer matches the BFS distance of the named pair *)
let test_rejects_wrong_diameter_lb () =
  let t, g = Lazy.force decomp_fixture in
  let big =
    List.find
      (fun (c : Audit.cert) -> List.length c.Audit.members > 1)
      t.Audit.certs
  in
  let bad =
    tamper t big.Audit.cluster (fun c ->
        { c with Audit.diameter_lb = c.Audit.diameter_lb + 1 })
  in
  expect_reject "inflated diameter lower bound" g bad

(* corruption 2: overlapping colors — recolor one cluster to the color
   of an adjacent cluster; one edge scan must refute disjointness *)
let test_rejects_overlapping_colors () =
  let t, g = Lazy.force decomp_fixture in
  let owner = Array.make t.Audit.n (-1) in
  List.iter
    (fun (c : Audit.cert) ->
      List.iter (fun v -> owner.(v) <- c.Audit.cluster) c.Audit.members)
    t.Audit.certs;
  let pair = ref None in
  Graph.iter_edges g (fun u v ->
      if !pair = None && owner.(u) >= 0 && owner.(v) >= 0 && owner.(u) <> owner.(v)
      then pair := Some (owner.(u), owner.(v)));
  match !pair with
  | None -> Alcotest.fail "fixture has no adjacent cluster pair"
  | Some (a, b) ->
      let color_of i =
        (List.find (fun (c : Audit.cert) -> c.Audit.cluster = i) t.Audit.certs)
          .Audit.color
      in
      let bad = tamper t a (fun c -> { c with Audit.color = color_of b }) in
      expect_reject "adjacent clusters share a color" g bad

(* corruption 3: miscounted dead nodes *)
let test_rejects_miscounted_dead () =
  let t, g = Lazy.force carve_fixture in
  expect_reject "dead count off by one" g
    { t with Audit.dead = t.Audit.dead + 1 };
  expect_reject "dead fraction tampered" g
    { t with Audit.dead_fraction = t.Audit.dead_fraction +. 0.125 }

(* corruption 4: structural tampering — stolen members and forged tree
   edges must also fall to the graph-only checks *)
let test_rejects_structural_tampering () =
  let t, g = Lazy.force decomp_fixture in
  (match t.Audit.certs with
  | (a : Audit.cert) :: (b : Audit.cert) :: _ ->
      let stolen = List.hd a.Audit.members in
      let bad =
        tamper t b.Audit.cluster (fun c ->
            { c with Audit.members = stolen :: c.Audit.members })
      in
      expect_reject "member claimed by two clusters" g bad
  | _ -> Alcotest.fail "fixture has fewer than two clusters");
  let with_tree =
    List.find
      (fun (c : Audit.cert) ->
        match c.Audit.tree with
        | Some w -> w.Audit.w_parents <> []
        | None -> false)
      t.Audit.certs
  in
  let bad =
    tamper t with_tree.Audit.cluster (fun c ->
        match c.Audit.tree with
        | Some w ->
            let far v = if v >= 32 then 0 else t.Audit.n - 1 in
            let w_parents =
              match w.Audit.w_parents with
              | (v, _) :: rest -> (v, far v) :: rest
              | [] -> []
            in
            { c with Audit.tree = Some { w with Audit.w_parents } }
        | None -> c)
  in
  expect_reject "forged tree edge" g bad

(* corruption 5: duplicate cluster ids — minimized regression. Relabel
   cluster 1 of an honest greedy audit on an 8x8 grid to id 0: the
   members, trees and colors stay valid, so only the id rule catches
   it (it used to verify) *)
let test_rejects_duplicate_cluster_id () =
  let g = Gen.grid 8 8 in
  let d = Baseline.Greedy.decompose g in
  let t = Audit.certify_decomposition d in
  check bool "honest verifies" true (is_ok (Audit.verify g t));
  let relabel i id = tamper t i (fun c -> { c with Audit.cluster = id }) in
  let expect what bad msg =
    match Audit.verify g bad with
    | Ok () -> Alcotest.failf "corruption not rejected: %s" what
    | Error e -> check Alcotest.string what msg e
  in
  expect "duplicate id" (relabel 1 0)
    "cluster id 0 appears twice (certificates 0 and 1)";
  let k = List.length t.Audit.certs in
  expect "id out of range" (relabel 2 k)
    (Printf.sprintf "cluster id %d outside [0, %d)" k k);
  expect "id out of order" (relabel 1 2)
    (Printf.sprintf
       "certificate 1 carries cluster id 2: ids must run 0..%d in list order"
       (k - 1))

(* Words allocated per node by certify + verify on a greedy
   decomposition of a side x side grid. Words allocated straight into
   the major heap count too (minor + major - promoted): an O(n) scratch
   is larger than the minor-heap limit for one block, so a per-cluster
   scratch would show up only there. The counters are synced at minor
   collections, hence the Gc.minor before each read. *)
let audit_words_per_node side =
  let g = Gen.grid side side in
  let d = Baseline.Greedy.decompose g in
  let allocated () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = allocated () in
  let t = Audit.certify_decomposition d in
  let verdict = Audit.verify g t in
  let words = allocated () -. before in
  check bool "verifies" true (is_ok verdict);
  words /. float_of_int (Graph.n g)

(* allocation scales with cluster volume, not with n: quadrupling n
   (and with it the cluster count — greedy covers a grid with nearly
   all singletons) leaves the per-node cost flat, whereas an O(n)
   buffer per cluster would quadruple it. *)
let test_allocation_scales_with_volume () =
  let small = audit_words_per_node 64 and large = audit_words_per_node 128 in
  check bool
    (Printf.sprintf "128x128 %.1f words/node within 1.5x of 64x64 %.1f" large
       small)
    true
    (large <= 1.5 *. small)

let test_verify_is_independent () =
  (* a certificate for the wrong graph must be rejected outright *)
  let t, _ = Lazy.force decomp_fixture in
  let other = Gen.grid 4 4 in
  check bool "wrong graph rejected" false (is_ok (Audit.verify other t))

(* A weakly certified decomposition: the clusters of a 6x6 grid are
   the residue classes of 5, mostly disconnected inside, each with its
   own color. *)
let weak_fixture () =
  let g = Gen.grid 6 6 in
  let labels = Array.init (Graph.n g) (fun v -> v mod 5) in
  let cl = Cluster.Clustering.make g ~cluster_of:labels in
  let colors = Array.init (Cluster.Clustering.num_clusters cl) Fun.id in
  let d = Cluster.Decomposition.make cl ~color_of_cluster:colors in
  (Audit.certify_decomposition d, g)

let verdict = function Ok () -> "ok" | Error e -> e
let is_weak (c : Audit.cert) = not c.Audit.strong

(* the weak eccentric-pair check stops its BFS at the pair's second
   node; its verdicts and messages are those of a full host-graph BFS *)
let test_weak_pairs_keep_messages () =
  let t, g = weak_fixture () in
  let weak = List.filter is_weak t.Audit.certs in
  check bool "fixture has weak certificates" true (List.length weak >= 3);
  let ws = Audit.workspace (Graph.n g) in
  let check_verdict what want audit =
    check Alcotest.string what want (verdict (Audit.verify g audit));
    check Alcotest.string (what ^ " (workspace)") want
      (verdict (Audit.verify_with ws g audit))
  in
  check_verdict "honest weak audit" "ok" t;
  List.iter
    (fun (c : Audit.cert) ->
      let cluster = c.Audit.cluster and u, v = c.Audit.lb_pair in
      let expect what f ~pair:(u, v) ~claimed =
        check_verdict what
          (Printf.sprintf
             "cluster %d: eccentric pair (%d,%d) is at distance %d, not the \
              claimed %d"
             cluster u v (Bfs.distances g ~source:u).(v) claimed)
          (tamper t cluster f);
        check_verdict (what ^ ", then honest") "ok" t
      in
      let lb = c.Audit.diameter_lb in
      expect "weak lower bound + 1"
        (fun c -> { c with Audit.diameter_lb = lb + 1 })
        ~pair:(u, v) ~claimed:(lb + 1);
      (* a pair nearer than the claim: the search stops early *)
      match List.filter (fun w -> w <> u && w <> v) c.Audit.members with
      | w :: _ ->
          expect "weak pair moved"
            (fun c -> { c with Audit.lb_pair = (u, w) })
            ~pair:(u, w) ~claimed:lb
      | [] -> ())
    weak;
  (* members in two components: the search exhausts one and reads -1 *)
  let g2 =
    Graph.of_edge_seq ~n:6 (List.to_seq [ (0, 1); (1, 2); (3, 4); (4, 5) ])
  in
  let cl = Cluster.Clustering.make g2 ~cluster_of:[| 0; 0; 1; 0; 1; 1 |] in
  let t2 =
    Audit.certify_decomposition
      (Cluster.Decomposition.make cl ~color_of_cluster:[| 0; 1 |])
  in
  check Alcotest.string "split weak cluster verifies" "ok"
    (verdict (Audit.verify g2 t2));
  let bad =
    tamper t2 0 (fun c -> { c with Audit.diameter_lb = 3; lb_pair = (0, 3) })
  in
  check Alcotest.string "unreachable pair"
    "cluster 0: eccentric pair (0,3) is at distance -1, not the claimed 3"
    (verdict (Audit.verify_with (Audit.workspace 6) g2 bad))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* One workspace through verifies that reject partway — at a claim, in
   a witness tree, after an eccentric-pair BFS (strong and weak), at a
   color clash — and honest ones, in both orders: every verdict equals
   a fresh-buffer verify's. *)
let test_workspace_reuse () =
  let t, g = Lazy.force decomp_fixture in
  let wt, wg = weak_fixture () in
  let ws = Audit.workspace (Graph.n g) and wws = Audit.workspace (Graph.n wg) in
  let certs = Array.of_list t.Audit.certs in
  let big =
    List.find
      (fun (c : Audit.cert) -> List.length c.Audit.members > 2)
      t.Audit.certs
  in
  let owner = Array.make t.Audit.n (-1) in
  Array.iter
    (fun (c : Audit.cert) ->
      List.iter (fun v -> owner.(v) <- c.Audit.cluster) c.Audit.members)
    certs;
  let clash = ref None in
  Graph.iter_edges g (fun u v ->
      let ou = owner.(u) and ov = owner.(v) in
      if !clash = None && ou >= 0 && ov >= 0 && ou <> ov then
        clash := Some (ou, ov));
  let a, b = Option.get !clash in
  let last = certs.(Array.length certs - 1).Audit.cluster in
  let weak =
    List.find
      (fun (c : Audit.cert) -> is_weak c && c.Audit.diameter_lb > 0)
      wt.Audit.certs
  in
  let on_t i f = (ws, g, tamper t i f)
  and on_wt i f = (wws, wg, tamper wt i f) in
  let bad =
    [
      ( "claimed by clusters",
        on_t last (fun c ->
            let stolen = List.hd big.Audit.members in
            { c with Audit.members = stolen :: c.Audit.members }) );
      ( "witness height",
        on_t big.Audit.cluster (fun c ->
            match c.Audit.tree with
            | Some w ->
                let w_height = w.Audit.w_height + 1 in
                { c with Audit.tree = Some { w with Audit.w_height } }
            | None -> c) );
      ( "is at distance",
        on_t big.Audit.cluster (fun c ->
            { c with Audit.diameter_lb = c.Audit.diameter_lb + 1 }) );
      ( "is at distance",
        on_wt weak.Audit.cluster (fun c ->
            { c with Audit.diameter_lb = c.Audit.diameter_lb - 1 }) );
      ( "of the same color",
        on_t a (fun c -> { c with Audit.color = certs.(b).Audit.color }) );
    ]
  in
  List.iter
    (fun (what, (w, g', audit)) ->
      let fresh = verdict (Audit.verify g' audit) in
      check bool (what ^ ": rejected there") true (contains fresh what);
      check Alcotest.string (what ^ ": rejected on the workspace") fresh
        (verdict (Audit.verify_with w g' audit));
      check Alcotest.string (what ^ ": honest accepted after it") "ok"
        (verdict (Audit.verify_with ws g t));
      check Alcotest.string (what ^ ": weak honest accepted after it") "ok"
        (verdict (Audit.verify_with wws wg wt));
      check Alcotest.string (what ^ ": rejected after an honest verify") fresh
        (verdict (Audit.verify_with w g' audit)))
    bad;
  Alcotest.check_raises "workspace of the wrong size"
    (Invalid_argument
       (Printf.sprintf "Audit.verify_with: workspace for %d nodes, graph has %d"
          (Graph.n g + 1) (Graph.n g)))
    (fun () -> ignore (Audit.verify_with (Audit.workspace (Graph.n g + 1)) g t))

(* One-node clusters. Their trivial certificate (members [v], root v,
   no pairs, height 0, pair (v, v) at lb 0, ub 0) is accepted without
   the tree walks; each tamper below must still meet the rejection and
   the message of the full checks. A weak claim on a one-node cluster
   is true, so [strong = false] is accepted. The fixtures: a 6x6 grid
   of one-node clusters in a checkerboard coloring (every certificate
   trivial, as on rmat-greedy), and greedy's 8x8 grid decomposition
   (one-node clusters among larger ones). *)
let singleton_fixture () =
  let g = Gen.grid 6 6 in
  let cl = Cluster.Clustering.make g ~cluster_of:(Array.init 36 Fun.id) in
  let colors = Array.init 36 (fun v -> ((v / 6) + (v mod 6)) mod 2) in
  ( Audit.certify_decomposition
      (Cluster.Decomposition.make cl ~color_of_cluster:colors),
    g )

let mixed_fixture () =
  let g = Gen.grid 8 8 in
  (Audit.certify_decomposition (Baseline.Greedy.decompose g), g)

let test_one_node_certificates () =
  let one_node (c : Audit.cert) = List.length c.Audit.members = 1 in
  List.iter
    (fun (name, (t, g)) ->
      let ws = Audit.workspace (Graph.n g) in
      let check_verdict what want audit =
        check Alcotest.string (name ^ ": " ^ what) want
          (verdict (Audit.verify g audit));
        check Alcotest.string (name ^ ": " ^ what ^ " (workspace)") want
          (verdict (Audit.verify_with ws g audit));
        check Alcotest.string (name ^ ": honest after " ^ what) "ok"
          (verdict (Audit.verify_with ws g t))
      in
      check_verdict "honest" "ok" t;
      let singles = List.filter one_node t.Audit.certs in
      check bool (name ^ ": has one-node clusters") true (singles <> []);
      if name = "mixed" then
        check bool "mixed: has larger clusters" true
          (List.length singles < List.length t.Audit.certs);
      List.iter
        (fun (c : Audit.cert) ->
          let cl = c.Audit.cluster and v = List.hd c.Audit.members in
          let w = (Graph.neighbors g v).(0) in
          let msg fmt = Printf.sprintf ("cluster %d: " ^^ fmt) cl in
          let with_tree f =
            tamper t cl (fun c ->
                { c with Audit.tree = Option.map f c.Audit.tree })
          in
          check_verdict "root not the member"
            (msg "witness root %d is not a member" w)
            (with_tree (fun tr -> { tr with Audit.w_root = w }));
          check_verdict "stray parent pair"
            (msg "strong witness pair (%d,%d) leaves the cluster" w v)
            (with_tree (fun tr -> { tr with Audit.w_parents = [ (w, v) ] }));
          check_verdict "height 1"
            (msg "witness height claims 1, recomputed 0")
            (with_tree (fun tr -> { tr with Audit.w_height = 1 }));
          check_verdict "lb 1"
            (msg "eccentric pair (%d,%d) is at distance 0, not the claimed 1"
               v v)
            (tamper t cl (fun c -> { c with Audit.diameter_lb = 1 }));
          check_verdict "lb pair (v, w)"
            (msg "eccentric pair (%d,%d) not members" v w)
            (tamper t cl (fun c -> { c with Audit.lb_pair = (v, w) }));
          check_verdict "ub None"
            (msg "diameter upper bound is not 2 x height")
            (tamper t cl (fun c -> { c with Audit.diameter_ub = None }));
          check_verdict "ub Some 2"
            (msg "diameter upper bound is not 2 x height")
            (tamper t cl (fun c -> { c with Audit.diameter_ub = Some 2 }));
          check_verdict "strong = false" "ok"
            (tamper t cl (fun c -> { c with Audit.strong = false })))
        [ List.hd singles; List.nth singles (List.length singles - 1) ])
    [ ("all one-node", singleton_fixture ()); ("mixed", mixed_fixture ()) ]

let () =
  Alcotest.run "audit"
    [
      ( "audit",
        [
          Alcotest.test_case "honest decomposition verifies" `Quick
            test_honest_decomposition_verifies;
          Alcotest.test_case "honest carving verifies" `Quick
            test_honest_carving_verifies;
          Alcotest.test_case "rejects inflated witness height" `Quick
            test_rejects_wrong_witness_height;
          Alcotest.test_case "rejects tampered diameter lower bound" `Quick
            test_rejects_wrong_diameter_lb;
          Alcotest.test_case "rejects overlapping colors" `Quick
            test_rejects_overlapping_colors;
          Alcotest.test_case "rejects miscounted dead nodes" `Quick
            test_rejects_miscounted_dead;
          Alcotest.test_case "rejects structural tampering" `Quick
            test_rejects_structural_tampering;
          Alcotest.test_case "rejects duplicate cluster ids" `Quick
            test_rejects_duplicate_cluster_id;
          Alcotest.test_case "allocation scales with cluster volume" `Quick
            test_allocation_scales_with_volume;
          Alcotest.test_case "verification is graph-anchored" `Quick
            test_verify_is_independent;
          Alcotest.test_case "weak eccentric pairs keep their messages" `Quick
            test_weak_pairs_keep_messages;
          Alcotest.test_case "workspace reuse after rejections" `Quick
            test_workspace_reuse;
          Alcotest.test_case "one-node certificates keep their messages" `Quick
            test_one_node_certificates;
        ] );
    ]
