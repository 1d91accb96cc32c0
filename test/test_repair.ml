(* Tests for the self-healing repair engine: [Cluster.Repair] (fault
   state, dirty-region planning, merge) and [Workload.Repair] (sessions,
   repair certificates, registry adapters).

   The load-bearing properties: untouched clusters are carried over
   byte-identical (and tampering with a carried certificate or the
   partition claim is rejected), every repaired result passes the
   graph-only audit verifier on the post-fault graph, and — the qcheck
   property — under random seeded fault deltas the repaired
   decomposition is valid on the survivor subgraph exactly when a
   from-scratch run is. *)

open Dsgraph
module CR = Cluster.Repair
module Repair = Workload.Repair
module Chaos = Workload.Chaos
module Audit = Workload.Audit

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "expected Invalid_argument: %s" what

(* ------------------------------------------------------------------ *)
(* Graph.apply_edits                                                   *)
(* ------------------------------------------------------------------ *)

let test_apply_edits () =
  let g = Gen.path 4 in
  let g' = Graph.apply_edits g ~del:[ (2, 1) ] ~add:[ (3, 0) ] in
  check bool "deleted" false (Graph.is_edge g' 1 2);
  check bool "added" true (Graph.is_edge g' 0 3);
  check bool "kept" true (Graph.is_edge g' 0 1);
  check int "edge count" 3 (Graph.m g');
  check bool "base untouched" true (Graph.is_edge g 1 2);
  expect_invalid "deleting a non-edge" (fun () ->
      Graph.apply_edits g ~del:[ (0, 2) ] ~add:[]);
  expect_invalid "adding an existing edge" (fun () ->
      Graph.apply_edits g ~del:[] ~add:[ (0, 1) ]);
  expect_invalid "self-loop" (fun () ->
      Graph.apply_edits g ~del:[] ~add:[ (2, 2) ]);
  expect_invalid "del and add the same edge" (fun () ->
      Graph.apply_edits g ~del:[ (0, 1) ] ~add:[ (1, 0) ])

(* ------------------------------------------------------------------ *)
(* Fault state                                                          *)
(* ------------------------------------------------------------------ *)

let test_state_crash_revive () =
  let g = Gen.path 4 in
  let st = CR.init g in
  let st1 = CR.step st (CR.delta ~crash:[ 1 ] ()) in
  check bool "isolated" false (Graph.is_edge (CR.graph st1) 0 1);
  check bool "down" true (CR.is_down st1 1);
  Alcotest.(check (list int)) "down list" [ 1 ] (CR.down st1);
  check bool "prior state untouched" false (CR.is_down st 1);
  let st2 = CR.step st1 (CR.delta ~revive:[ 1 ] ()) in
  check bool "edges restored" true
    (Graph.is_edge (CR.graph st2) 0 1 && Graph.is_edge (CR.graph st2) 1 2);
  (* a deletion survives the owner's crash and revival *)
  let st3 = CR.step st (CR.delta ~del_edges:[ (0, 1) ] ()) in
  let st4 = CR.step st3 (CR.delta ~crash:[ 1 ] ()) in
  let st5 = CR.step st4 (CR.delta ~revive:[ 1 ] ()) in
  check bool "deletion persists" false (Graph.is_edge (CR.graph st5) 0 1);
  check bool "other edge back" true (Graph.is_edge (CR.graph st5) 1 2)

let test_step_validation () =
  let g = Gen.path 4 in
  let st = CR.init g in
  let down = CR.step st (CR.delta ~crash:[ 1 ] ()) in
  expect_invalid "crash a down node" (fun () ->
      CR.step down (CR.delta ~crash:[ 1 ] ()));
  expect_invalid "revive an up node" (fun () ->
      CR.step st (CR.delta ~revive:[ 2 ] ()));
  expect_invalid "crash and revive the same node" (fun () ->
      CR.step down (CR.delta ~crash:[ 2 ] ~revive:[ 2 ] ()));
  expect_invalid "delete an absent edge" (fun () ->
      CR.step st (CR.delta ~del_edges:[ (0, 2) ] ()));
  expect_invalid "insert an existing edge" (fun () ->
      CR.step st (CR.delta ~add_edges:[ (1, 2) ] ()));
  expect_invalid "insert at a down endpoint" (fun () ->
      CR.step down (CR.delta ~add_edges:[ (1, 3) ] ()));
  (* an edge listed twice in one delta is rejected by Repair.step itself,
     before any history is recorded, in either orientation *)
  let expect_step_error what f =
    match f () with
    | exception Invalid_argument msg ->
        check bool
          (Printf.sprintf "%s: %S starts with Repair.step" what msg)
          true
          (String.starts_with ~prefix:"Repair.step" msg)
    | _ -> Alcotest.failf "expected Invalid_argument: %s" what
  in
  let inserted = CR.step st (CR.delta ~add_edges:[ (0, 2) ] ()) in
  expect_step_error "delete an inserted edge twice" (fun () ->
      CR.step inserted (CR.delta ~del_edges:[ (0, 2); (2, 0) ] ()));
  expect_step_error "delete a base edge twice" (fun () ->
      CR.step st (CR.delta ~del_edges:[ (1, 2); (1, 2) ] ()))

(* ------------------------------------------------------------------ *)
(* Planning on a hand-built clustering: cycle of 8 nodes, clusters
   {0,1} {2,3} {4,5} {6,7} — all strongly certifiable pairs            *)
(* ------------------------------------------------------------------ *)

let pairs_fixture () =
  let g = Gen.cycle 8 in
  let cl = Cluster.Clustering.make g ~cluster_of:[| 0; 0; 1; 1; 2; 2; 3; 3 |] in
  (g, cl)

let strong _ = false
let carving_color _ = -1

let test_plan_halo () =
  let g, cl = pairs_fixture () in
  let d = CR.delta ~crash:[ 0 ] () in
  let st = CR.step (CR.init g) d in
  let p0 = CR.plan ~weak:strong ~color:carving_color ~old:cl st d in
  Alcotest.(check (list int)) "halo 0: only the hit cluster" [ 0 ] p0.CR.dirty;
  Alcotest.(check (list int)) "halo 0: surviving member" [ 1 ] p0.CR.region;
  let p1 = CR.plan ~halo:1 ~weak:strong ~color:carving_color ~old:cl st d in
  Alcotest.(check (list int)) "halo 1: ball reaches neighbors" [ 0; 1; 3 ]
    p1.CR.dirty;
  Alcotest.(check (list int)) "halo 1: region" [ 1; 2; 3; 6; 7 ] p1.CR.region

let test_plan_edge_rules () =
  let g, cl = pairs_fixture () in
  (* intra-cluster deletion invalidates the exact eccentric witness *)
  let d = CR.delta ~del_edges:[ (2, 3) ] () in
  let st = CR.step (CR.init g) d in
  let p = CR.plan ~weak:strong ~color:carving_color ~old:cl st d in
  Alcotest.(check (list int)) "intra del dirties its cluster" [ 1 ] p.CR.dirty;
  (* inter-cluster insertion with equal colors dirties both sides *)
  let d = CR.delta ~add_edges:[ (1, 4) ] () in
  let st = CR.step (CR.init g) d in
  let p = CR.plan ~weak:strong ~color:carving_color ~old:cl st d in
  Alcotest.(check (list int)) "same-color insertion dirties both" [ 0; 2 ]
    p.CR.dirty;
  (* distinct colors: separation is allowed to survive the insertion *)
  let p =
    CR.plan ~weak:strong ~color:(fun c -> c) ~old:cl st d
  in
  Alcotest.(check (list int)) "distinct-color insertion is clean" [] p.CR.dirty;
  (* weak certificates are dirtied by any delta at all *)
  let p = CR.plan ~weak:(fun _ -> true) ~color:(fun c -> c) ~old:cl st d in
  Alcotest.(check (list int)) "weak certs always dirty" [ 0; 1; 2; 3 ]
    p.CR.dirty

let test_merge_carving_frontier () =
  (* a real (non-adjacent) carving on the path 0-1-2-3-4-5: clusters
     {0,1} and {3,4}, dead separators 2 and 5. Crashing 0 with halo 1
     pulls the dead node 2 into the region as a halo extra — but 2
     borders the untouched cluster {3,4}, so it must be withheld from
     the re-carver and left dead *)
  let g = Gen.path 6 in
  let cl =
    Cluster.Clustering.make g ~cluster_of:[| 0; 0; -1; 1; 1; -1 |]
  in
  let d = CR.delta ~crash:[ 0 ] () in
  let st = CR.step (CR.init g) d in
  let p = CR.plan ~halo:1 ~weak:strong ~color:carving_color ~old:cl st d in
  Alcotest.(check (list int)) "region = survivor + halo extra" [ 1; 2 ]
    p.CR.region;
  let recarve_nodes = ref (-1) in
  let m =
    CR.merge ~kind:CR.Carving ~old:cl ~color_of:carving_color ~plan:p ~state:st
      ~recarve:(fun sub ->
        recarve_nodes := Graph.n sub;
        (Array.make (Graph.n sub) 0, [| -1 |]))
  in
  check int "only the interior node reaches the re-carver" 1 !recarve_nodes;
  check int "two clusters" 2 (Cluster.Clustering.num_clusters m.CR.clustering);
  check int "frontier node stays dead" (-1)
    (Cluster.Clustering.cluster_of m.CR.clustering 2);
  check bool "separation preserved" true
    (Cluster.Clustering.non_adjacent m.CR.clustering);
  Alcotest.(check (list int)) "untouched members intact" [ 3; 4 ]
    (Cluster.Clustering.members m.CR.clustering m.CR.old_to_new.(1));
  check int "one fresh cluster" 1 (List.length m.CR.fresh)

let test_merge_empty_delta_is_identity () =
  let fam = Workload.Suite.find "grid" in
  let g = fam.Workload.Suite.build ~seed:3 ~n:64 in
  let a = Workload.Algorithms.find_decomposer "greedy" in
  let dcp = a.Workload.Algorithms.run ~cost:(Congest.Cost.create ()) ~seed:3 g in
  let s = Repair.start_decomposition dcp in
  let s', rep = Repair.repair ~recarve:(Repair.recarve_decomposer a ~seed:4) s (CR.delta ()) in
  check int "nothing touched" 0 rep.Repair.touched_nodes;
  check int "nothing fresh" 0 rep.Repair.fresh_clusters;
  check int "all carried"
    (Cluster.Clustering.num_clusters s.Repair.clustering)
    rep.Repair.carried_clusters;
  (match Repair.verify_cert ~prev:s ~post:(CR.graph s'.Repair.state) rep.Repair.cert with
  | Ok () -> ()
  | Error e -> Alcotest.failf "identity repair rejected: %s" e);
  check bool "audit unchanged" true (s'.Repair.audit = s.Repair.audit)

(* ------------------------------------------------------------------ *)
(* Workload sessions: end-to-end repair + certificate                   *)
(* ------------------------------------------------------------------ *)

let decomp_session ?(n = 64) ?(seed = 3) () =
  let fam = Workload.Suite.find "grid" in
  let g = fam.Workload.Suite.build ~seed ~n in
  let a = Workload.Algorithms.find_decomposer "greedy" in
  let d = a.Workload.Algorithms.run ~cost:(Congest.Cost.create ()) ~seed g in
  (Repair.start_decomposition d, Repair.recarve_decomposer a ~seed:(seed + 1))

let test_decomposition_repair_certified () =
  let s, recarve = decomp_session () in
  let g = CR.graph s.Repair.state in
  let v = Graph.n g / 2 in
  let w = List.hd (Array.to_list (Graph.neighbors g (v + 1))) in
  let d =
    CR.delta ~crash:[ v ]
      ~del_edges:[ (v + 1, w) ]
      ()
  in
  let s', rep = Repair.repair ~halo:1 ~recarve s d in
  (match Repair.verify_cert ~prev:s ~post:(CR.graph s'.Repair.state) rep.Repair.cert with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest repair rejected: %s" e);
  check int "every survivor clustered" 0 s'.Repair.audit.Audit.dead;
  check bool "repair was local" true (rep.Repair.touched_fraction < 0.5);
  check bool "some clusters carried" true (rep.Repair.carried_clusters > 0)

let test_carving_repair_certified () =
  let fam = Workload.Suite.find "grid" in
  let g = fam.Workload.Suite.build ~seed:5 ~n:64 in
  let a = Workload.Algorithms.find_carver "thm2.2" in
  let cv =
    a.Workload.Algorithms.run ~cost:(Congest.Cost.create ()) ~seed:5 g
      ~epsilon:0.25
  in
  let s = Repair.start_carving cv in
  let d = CR.delta ~crash:[ 7 ] () in
  let s', rep =
    Repair.repair ~halo:1
      ~recarve:(Repair.recarve_carver a ~seed:6 ~epsilon:0.25)
      s d
  in
  (match Repair.verify_cert ~prev:s ~post:(CR.graph s'.Repair.state) rep.Repair.cert with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest carving repair rejected: %s" e);
  check bool "separation preserved" true
    (Cluster.Clustering.non_adjacent s'.Repair.clustering)

let test_tampered_cert_rejected () =
  let s, recarve = decomp_session () in
  let d = CR.delta ~crash:[ 10 ] () in
  let s', rep = Repair.repair ~halo:1 ~recarve s d in
  let post = CR.graph s'.Repair.state in
  let cert = rep.Repair.cert in
  let expect_reject what c =
    match Repair.verify_cert ~prev:s ~post c with
    | Ok () -> Alcotest.failf "tampering not rejected: %s" what
    | Error _ -> ()
  in
  (* claim a dirty cluster was carried-clean: the partition check fails *)
  expect_reject "dropped dirty id"
    { cert with Repair.c_dirty = List.tl cert.Repair.c_dirty };
  (* tamper one carried cluster's certificate content *)
  (match cert.Repair.c_carried with
  | [] -> Alcotest.fail "expected carried clusters"
  | (_, nw) :: _ ->
      let audit = cert.Repair.c_audit in
      let tampered =
        {
          audit with
          Audit.certs =
            List.map
              (fun (c : Audit.cert) ->
                if c.Audit.cluster = nw then
                  { c with Audit.diameter_ub = Some 9999 }
                else c)
              audit.Audit.certs;
        }
      in
      expect_reject "mutated carried certificate"
        { cert with Repair.c_audit = tampered })

(* minimized regression: an out-of-range or repeated cluster id in the
   repaired audit indexed the by-id array directly and raised
   Invalid_argument "index out of bounds" instead of returning Error *)
let test_tampered_cluster_id_rejected () =
  let s, recarve = decomp_session () in
  let s', rep = Repair.repair ~halo:1 ~recarve s (CR.delta ~crash:[ 10 ] ()) in
  let post = CR.graph s'.Repair.state in
  let cert = rep.Repair.cert in
  let relabel i id =
    let audit = cert.Repair.c_audit in
    {
      cert with
      Repair.c_audit =
        {
          audit with
          Audit.certs =
            List.mapi
              (fun j (c : Audit.cert) ->
                if j = i then { c with Audit.cluster = id } else c)
              audit.Audit.certs;
        };
    }
  in
  let k = List.length cert.Repair.c_audit.Audit.certs in
  let expect what c msg =
    match Repair.verify_cert ~prev:s ~post c with
    | Ok () -> Alcotest.failf "tampering not rejected: %s" what
    | Error e -> check Alcotest.string what msg e
    | exception e ->
        Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  expect "id out of range" (relabel 0 10000)
    (Printf.sprintf "repaired certificate: cluster id 10000 outside [0, %d)" k);
  expect "repeated id" (relabel 1 0)
    "repaired certificate: cluster id 0 appears twice (certificates 0 and 1)"

(* the ISSUE acceptance bar: grid256, one crash, halo 1 — the repair
   re-carves at most 25% of the nodes *)
let test_grid256_single_crash_locality () =
  let s, recarve = decomp_session ~n:256 () in
  let d = CR.delta ~crash:[ 128 ] () in
  let s', rep = Repair.repair ~halo:1 ~recarve s d in
  (match Repair.verify_cert ~prev:s ~post:(CR.graph s'.Repair.state) rep.Repair.cert with
  | Ok () -> ()
  | Error e -> Alcotest.failf "grid256 repair rejected: %s" e);
  check bool
    (Printf.sprintf "touched fraction %.3f <= 0.25" rep.Repair.touched_fraction)
    true
    (rep.Repair.touched_fraction <= 0.25)

(* ------------------------------------------------------------------ *)
(* qcheck: repair-equivalence under random seeded fault deltas          *)
(* ------------------------------------------------------------------ *)

let prop_repair_equivalence =
  QCheck2.Test.make ~count:40
    ~name:
      "random deltas: repair certificate accepted and repaired validity \
       matches from-scratch validity"
    QCheck2.Gen.(
      quad (int_range 0 100_000) (int_range 12 48) (int_range 0 2)
        (triple (int_range 0 2) (int_range 0 2) (int_range 0 2)))
    (fun (seed, n, crashes, (dels, adds, halo)) ->
      let algo =
        match seed mod 4 with
        | 0 -> Chaos.Decomposer "greedy"
        | 1 -> Chaos.Decomposer "gha19"
        | 2 -> Chaos.Decomposer "ls93"
        | _ -> Chaos.Carver "thm2.2"
      in
      let family = match seed mod 3 with 0 -> "er" | 1 -> "grid" | _ -> "tree" in
      let sp =
        Chaos.spec algo ~family ~n ~seed ~steps:2 ~crashes ~edge_dels:dels
          ~edge_adds:adds ~halo ~revive_prob:0.5
      in
      let r = Chaos.run sp in
      (* zero invariant violations = repair accepted + valid on the
         survivor subgraph; scratch_valid = the from-scratch side of the
         equivalence (both must hold, and do) *)
      r.Chaos.failures = []
      && List.for_all (fun row -> row.Chaos.scratch_valid) r.Chaos.rows)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "repair"
    [
      ( "state",
        [
          Alcotest.test_case "apply_edits" `Quick test_apply_edits;
          Alcotest.test_case "crash and revive" `Quick test_state_crash_revive;
          Alcotest.test_case "delta validation" `Quick test_step_validation;
        ] );
      ( "plan",
        [
          Alcotest.test_case "halo balls" `Quick test_plan_halo;
          Alcotest.test_case "edge dirty rules" `Quick test_plan_edge_rules;
        ] );
      ( "merge",
        [
          Alcotest.test_case "carving frontier withheld" `Quick
            test_merge_carving_frontier;
          Alcotest.test_case "empty delta is identity" `Quick
            test_merge_empty_delta_is_identity;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "decomposition repair certified" `Quick
            test_decomposition_repair_certified;
          Alcotest.test_case "carving repair certified" `Quick
            test_carving_repair_certified;
          Alcotest.test_case "tampered certificates rejected" `Quick
            test_tampered_cert_rejected;
          Alcotest.test_case "tampered cluster ids rejected" `Quick
            test_tampered_cluster_id_rejected;
          Alcotest.test_case "grid256 single crash is local" `Quick
            test_grid256_single_crash_locality;
          QCheck_alcotest.to_alcotest prop_repair_equivalence;
        ] );
    ]
