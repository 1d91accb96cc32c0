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
      Graph.apply_edits g ~del:[ (0, 1) ] ~add:[ (1, 0) ]);
  (* the splice keeps the rebuild's validation, message for message *)
  let expect_msg msg ~del ~add =
    match Graph.apply_edits g ~del ~add with
    | exception Invalid_argument m -> check Alcotest.string msg msg m
    | _ -> Alcotest.failf "expected Invalid_argument %S" msg
  in
  expect_msg "Graph.apply_edits: deleting non-edge (0,2)" ~del:[ (2, 0) ] ~add:[];
  expect_msg "Graph.apply_edits: adding existing edge (0,1)" ~del:[]
    ~add:[ (1, 0) ];
  expect_msg "Graph.apply_edits: self-loop in add" ~del:[] ~add:[ (2, 2) ];
  expect_msg "Graph.apply_edits: self-loop in del" ~del:[ (1, 1) ] ~add:[];
  expect_msg "Graph.apply_edits: del endpoint out of range" ~del:[ (0, 4) ]
    ~add:[];
  expect_msg "Graph.apply_edits: add endpoint out of range" ~del:[]
    ~add:[ (-1, 2) ];
  expect_msg "Graph.apply_edits: edge (0,1) both deleted and added"
    ~del:[ (0, 1) ] ~add:[ (1, 0) ];
  (* edits are sets: a repeat, in either orientation, is one edit *)
  let g' = Graph.apply_edits g ~del:[ (1, 2); (2, 1) ] ~add:[ (0, 3); (3, 0) ] in
  check int "repeats merged" 3 (Graph.m g');
  check bool "empty edit lists copy the graph" true
    (Graph.equal g (Graph.apply_edits g ~del:[] ~add:[]))

(* the rebuild the splice replaced: every kept edge and every added one
   through a Graph.Builder *)
let rebuild g ~del ~add =
  let b = Graph.Builder.create ~n:(Graph.n g) in
  let norm (u, v) = if u < v then (u, v) else (v, u) in
  let del = List.map norm del in
  Graph.iter_edges g (fun u v ->
      if not (List.mem (u, v) del) then Graph.Builder.add_edge b u v);
  List.iter (fun (u, v) -> Graph.Builder.add_edge b u v) add;
  Graph.Builder.build b

let prop_apply_edits_matches_rebuild =
  QCheck2.Test.make ~count:300
    ~name:
      "Graph.apply_edits splice equals a Graph.Builder rebuild, and diff_rows \
       finds its rows"
    ~print:(fun (seed, n, pct) -> Printf.sprintf "seed=%d n=%d p=%d%%" seed n pct)
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 1 40) (int_range 0 50))
    (fun (seed, n, pct) ->
      let rng = Rng.create seed in
      let g =
        Graph.of_edge_seq ~n
          (Seq.filter_map
             (fun i ->
               let u = i / n and v = i mod n in
               if u < v && Rng.int rng 100 < pct then Some (u, v) else None)
             (Seq.init (n * n) Fun.id))
      in
      let edges = Array.of_list (List.of_seq (Graph.edges_seq g)) in
      let mode = seed mod 4 in
      (* mode 0: no edits at all; mode 1: every edge of one node goes *)
      let del =
        if mode = 0 || Array.length edges = 0 then []
        else
          let hub = Rng.int rng n in
          List.filter
            (fun (u, v) ->
              (mode = 1 && (u = hub || v = hub)) || Rng.int rng 100 < 20)
            (Array.to_list edges)
      in
      (* repeats and flipped orientations are the same edit *)
      let del =
        match del with (u, v) :: _ when seed mod 3 = 0 -> (v, u) :: del | _ -> del
      in
      let isolated = List.filter (fun v -> Graph.degree g v = 0) (Graph.nodes g) in
      let add = ref [] in
      if mode <> 0 then begin
        (* edges at isolated nodes first, then random non-edges *)
        (match isolated with
        | a :: b :: _ -> add := [ (a, b) ]
        | [ a ] when n > 1 -> add := [ (a, (a + 1) mod n) ]
        | _ -> ());
        for _ = 1 to Rng.int rng 8 do
          let u = Rng.int rng n and v = Rng.int rng n in
          if u <> v && not (Graph.is_edge g u v) then add := (v, u) :: (u, v) :: !add
        done
      end;
      let add = List.filter (fun (u, v) -> not (Graph.is_edge g u v)) !add in
      let before = rebuild g ~del:[] ~add:[] in
      let spliced = Graph.apply_edits g ~del ~add in
      let rebuilt = rebuild g ~del ~add in
      (* the changed rows come from the splice's record; a pair that
         no one splice relates has none to give *)
      let rows a b =
        let acc = ref [] in
        if Graph.diff_rows a b (fun u -> acc := u :: !acc) then
          Some (List.rev !acc)
        else None
      in
      let ends =
        List.sort_uniq Int.compare
          (List.concat_map (fun (u, v) -> [ u; v ]) (del @ add))
      in
      Graph.equal spliced rebuilt && Graph.equal g before
      && rows g spliced = Some ends
      && rows g g = Some []
      && rows spliced g = None
      && rows before rebuilt = None)

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
      CR.step st (CR.delta ~del_edges:[ (1, 2); (1, 2) ] ()));
  (* a node listed twice in crash or in revive is the same kind of
     inconsistency *)
  expect_step_error "crash a node twice" (fun () ->
      CR.step st (CR.delta ~crash:[ 1; 1 ] ()));
  let two_down = CR.step st (CR.delta ~crash:[ 2 ] ()) in
  expect_step_error "revive a node twice" (fun () ->
      CR.step two_down (CR.delta ~revive:[ 2; 2 ] ()))

(* ------------------------------------------------------------------ *)
(* The delta-sized step against the full-history replay (Repair_ref)    *)
(* ------------------------------------------------------------------ *)

(* the step and the oracle agree on the graph, the down set and the
   survivors; [what] names the point of the schedule *)
let agrees what st r =
  let ok =
    Graph.equal (CR.graph st) (Repair_ref.graph r)
    && CR.down st = Repair_ref.down r
    && Mask.to_list (CR.survivors st) = Repair_ref.survivors r
  in
  if not ok then Printf.printf "step and replay disagree at %s\n" what;
  ok

(* A valid random delta against the oracle's state. Crashes, revivals,
   deletions (of base and of inserted edges, some at nodes crashing in
   the same delta) and insertions, which favour re-adding this delta's
   own deletions and deleted base edges over fresh pairs. *)
let random_delta rng r =
  let g = Repair_ref.graph r in
  let n = Graph.n g in
  let up = Repair_ref.survivors r in
  let crash =
    if List.length up > 3 then List.filter (fun _ -> Rng.int rng 100 < 8) up
    else []
  in
  let revive = List.filter (fun _ -> Rng.int rng 100 < 30) (Repair_ref.down r) in
  let up_after v =
    (not (Repair_ref.is_down r v || List.mem v crash)) || List.mem v revive
  in
  let edges = Array.of_list (List.of_seq (Graph.edges_seq g)) in
  let del = ref [] in
  for _ = 1 to Rng.int rng 3 do
    if Array.length edges > 0 then begin
      let e = edges.(Rng.int rng (Array.length edges)) in
      if not (List.mem e !del) then del := e :: !del
    end
  done;
  let absent_after (u, v) =
    u <> v && up_after u && up_after v
    && ((not (Repair_ref.logical r u v)) || List.mem (min u v, max u v) !del)
  in
  let add = ref [] in
  for _ = 1 to Rng.int rng 3 do
    let pool =
      match Rng.int rng 3 with
      | 0 -> !del
      | 1 -> Repair_ref.removed r
      | _ -> [ (Rng.int rng n, Rng.int rng n) ]
    in
    match pool with
    | [] -> ()
    | l ->
        let u, v = List.nth l (Rng.int rng (List.length l)) in
        let e = (min u v, max u v) in
        if absent_after e && not (List.mem e !add) then add := e :: !add
  done;
  CR.delta ~crash ~revive ~del_edges:!del
    ~add_edges:(List.map (fun (u, v) -> if Rng.bool rng then (v, u) else (u, v)) !add)
    ()

let replay_graph seed n =
  match seed mod 3 with
  | 0 -> Gen.grid (max 2 (n / 4)) 4
  | 1 -> Gen.path n
  | _ -> (Workload.Suite.find "er").Workload.Suite.build ~seed ~n

let prop_step_matches_replay =
  QCheck2.Test.make ~count:25
    ~name:"delta-sized step equals the full-history replay over long schedules"
    ~print:(fun (seed, n, steps) ->
      Printf.sprintf "seed=%d n=%d steps=%d" seed n steps)
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 6 30) (int_range 200 300))
    (fun (seed, n, steps) ->
      let g = replay_graph seed n in
      let rng = Rng.create seed in
      let rec go i st r =
        i = steps
        ||
        let d = random_delta rng r in
        let st = CR.step st d and r = Repair_ref.step r d in
        agrees (Printf.sprintf "delta %d" i) st r && go (i + 1) st r
      in
      go 0 (CR.init g) (Repair_ref.init g))

(* each history the step has to get right, named, on a 4x4 grid *)
let test_step_histories () =
  let g = Gen.grid 4 4 in
  let deltas =
    [
      (* crash, then revive: the node's edges come back *)
      CR.delta ~crash:[ 5 ] ();
      CR.delta ~revive:[ 5 ] ();
      (* delete a base edge, then add it back *)
      CR.delta ~del_edges:[ (0, 1) ] ();
      CR.delta ~add_edges:[ (1, 0) ] ();
      (* an inserted edge whose endpoint crashes, then revives *)
      CR.delta ~add_edges:[ (0, 15) ] ();
      CR.delta ~crash:[ 15 ] ();
      CR.delta ~revive:[ 15 ] ();
      (* delete and add one edge in one delta, inserted and base *)
      CR.delta ~del_edges:[ (0, 15) ] ~add_edges:[ (15, 0) ] ();
      CR.delta ~del_edges:[ (4, 5) ] ~add_edges:[ (5, 4) ] ();
      (* a crash and a deletion at the same node in one delta, the
         deletion outliving the revival *)
      CR.delta ~crash:[ 6 ] ~del_edges:[ (6, 7) ] ();
      CR.delta ~revive:[ 6 ] ();
      (* a revival with an insertion at the revived node *)
      CR.delta ~crash:[ 9 ] ();
      CR.delta ~revive:[ 9 ] ~add_edges:[ (9, 3) ] ();
    ]
  in
  ignore
    (List.fold_left
       (fun (i, st, r) d ->
         let st = CR.step st d and r = Repair_ref.step r d in
         check bool (Printf.sprintf "delta %d agrees" i) true
           (agrees (string_of_int i) st r);
         (i + 1, st, r))
       (0, CR.init g, Repair_ref.init g)
       deltas);
  let st = List.fold_left CR.step (CR.init g) deltas in
  check bool "re-added base edge present" true (Graph.is_edge (CR.graph st) 0 1);
  check bool "inserted edge back after revival" true
    (Graph.is_edge (CR.graph st) 0 15);
  check bool "deletion outlives the crash" false (Graph.is_edge (CR.graph st) 6 7);
  check bool "insertion at a revived node" true (Graph.is_edge (CR.graph st) 3 9)

(* ------------------------------------------------------------------ *)
(* Planning on a hand-built clustering: cycle of 8 nodes, clusters
   {0,1} {2,3} {4,5} {6,7} — all strongly certifiable pairs            *)
(* ------------------------------------------------------------------ *)

let pairs_fixture () =
  let g = Gen.cycle 8 in
  let cl = Cluster.Clustering.make g ~cluster_of:[| 0; 0; 1; 1; 2; 2; 3; 3 |] in
  (g, cl)

let carving_color _ = -1

let test_plan_halo () =
  let g, cl = pairs_fixture () in
  let d = CR.delta ~crash:[ 0 ] () in
  let st = CR.step (CR.init g) d in
  let sc = CR.scratch (Graph.n g) in
  let p0 = CR.plan ~scratch:sc ~weak:[] ~color:carving_color ~old:cl st d in
  Alcotest.(check (list int)) "halo 0: only the hit cluster" [ 0 ] p0.CR.dirty;
  Alcotest.(check (list int)) "halo 0: surviving member" [ 1 ] p0.CR.region;
  let p1 =
    CR.plan ~halo:1 ~scratch:sc ~weak:[] ~color:carving_color ~old:cl st d
  in
  Alcotest.(check (list int)) "halo 1: ball reaches neighbors" [ 0; 1; 3 ]
    p1.CR.dirty;
  Alcotest.(check (list int)) "halo 1: region" [ 1; 2; 3; 6; 7 ] p1.CR.region

let test_plan_edge_rules () =
  let g, cl = pairs_fixture () in
  let scratch = CR.scratch (Graph.n g) in
  (* intra-cluster deletion invalidates the exact eccentric witness *)
  let d = CR.delta ~del_edges:[ (2, 3) ] () in
  let st = CR.step (CR.init g) d in
  let p = CR.plan ~scratch ~weak:[] ~color:carving_color ~old:cl st d in
  Alcotest.(check (list int)) "intra del dirties its cluster" [ 1 ] p.CR.dirty;
  (* inter-cluster insertion with equal colors dirties both sides *)
  let d = CR.delta ~add_edges:[ (1, 4) ] () in
  let st = CR.step (CR.init g) d in
  let p = CR.plan ~scratch ~weak:[] ~color:carving_color ~old:cl st d in
  Alcotest.(check (list int)) "same-color insertion dirties both" [ 0; 2 ]
    p.CR.dirty;
  (* distinct colors: separation is allowed to survive the insertion *)
  let p =
    CR.plan ~scratch ~weak:[] ~color:(fun c -> c) ~old:cl st d
  in
  Alcotest.(check (list int)) "distinct-color insertion is clean" [] p.CR.dirty;
  (* weak certificates are dirtied by any delta at all *)
  let p =
    CR.plan ~scratch ~weak:[ 0; 1; 2; 3 ] ~color:(fun c -> c) ~old:cl st d
  in
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
  let p =
    CR.plan ~halo:1 ~scratch:(CR.scratch (Graph.n g)) ~weak:[]
      ~color:carving_color ~old:cl st d
  in
  Alcotest.(check (list int)) "region = survivor + halo extra" [ 1; 2 ]
    p.CR.region;
  let recarve_nodes = ref (-1) in
  let m =
    CR.merge ~scratch:(CR.scratch (Graph.n g)) ~kind:CR.Carving ~old:cl
      ~color_of:carving_color ~plan:p ~state:st ~recarve:(fun sub ->
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
    (Cluster.Clustering.members m.CR.clustering (List.assoc 1 m.CR.carried));
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
  (* a repeated id in place of a missing one keeps the count right; the
     partition check must still see the repeat *)
  let k_old = Cluster.Clustering.num_clusters s.Repair.clustering in
  let k_new = List.length cert.Repair.c_audit.Audit.certs in
  let expect_message what want c =
    match Repair.verify_cert ~prev:s ~post c with
    | Ok () -> Alcotest.failf "tampering not rejected: %s" what
    | Error e -> check Alcotest.string what want e
  in
  let o0, nw0 = List.hd cert.Repair.c_carried in
  let old_msg =
    Printf.sprintf "dirty + carried do not partition the %d previous clusters"
      k_old
  and new_msg =
    Printf.sprintf "fresh + carried do not partition the %d repaired clusters"
      k_new
  in
  expect_message "carried old id repeated as dirty" old_msg
    { cert with Repair.c_dirty = o0 :: List.tl cert.Repair.c_dirty };
  expect_message "carried new id repeated as fresh" new_msg
    { cert with Repair.c_fresh = nw0 :: List.tl cert.Repair.c_fresh };
  expect_message "carried pair repeated" old_msg
    {
      cert with
      Repair.c_carried =
        (o0, nw0) :: (o0, nw0) :: List.tl (List.tl cert.Repair.c_carried);
    };
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

(* carried certificates are compared by value: a fresh copy of an equal
   member list passes, a changed witness tree does not *)
let test_carried_cert_by_value () =
  let s, recarve = decomp_session ~n:256 () in
  let s', rep = Repair.repair ~halo:1 ~recarve s (CR.delta ~crash:[ 10 ] ()) in
  let post = CR.graph s'.Repair.state in
  let cert = rep.Repair.cert in
  let o, nw =
    match
      List.find_opt
        (fun (_, nw) ->
          List.exists
            (fun (c : Audit.cert) ->
              c.Audit.cluster = nw && c.Audit.tree <> None
              && List.length c.Audit.members > 1
              && fst c.Audit.lb_pair <> snd c.Audit.lb_pair)
            cert.Repair.c_audit.Audit.certs)
        cert.Repair.c_carried
    with
    | Some p -> p
    | None ->
        Alcotest.fail
          "expected a carried cluster with a witness tree and two members"
  in
  let with_cert f =
    let audit = cert.Repair.c_audit in
    {
      cert with
      Repair.c_audit =
        {
          audit with
          Audit.certs =
            List.map
              (fun (c : Audit.cert) -> if c.Audit.cluster = nw then f c else c)
              audit.Audit.certs;
        };
    }
  in
  let copied =
    with_cert (fun c -> { c with Audit.members = List.map Fun.id c.Audit.members })
  in
  (match Repair.verify_cert ~prev:s ~post copied with
  | Ok () -> ()
  | Error e -> Alcotest.failf "copied member list rejected: %s" e);
  (* each field changed alone; the carried check runs before the full
     verify, so its message names the change even where the verify
     would reject it too *)
  let want =
    Printf.sprintf "carried cluster %d -> %d: certificate not identical" o nw
  in
  List.iter
    (fun (what, f) ->
      match Repair.verify_cert ~prev:s ~post (with_cert f) with
      | Ok () -> Alcotest.failf "%s accepted" what
      | Error e -> check Alcotest.string what want e)
    [
      ("changed witness tree", fun c -> { c with Audit.tree = None });
      ( "witness height",
        fun c ->
          {
            c with
            Audit.tree =
              Option.map
                (fun w -> { w with Audit.w_height = w.Audit.w_height + 1 })
                c.Audit.tree;
          } );
      ( "members reversed",
        fun c -> { c with Audit.members = List.rev c.Audit.members } );
      ( "pair's first node",
        fun c ->
          let _, v = c.Audit.lb_pair in
          { c with Audit.lb_pair = (v, v) } );
      ( "pair's second node",
        fun c ->
          let u, _ = c.Audit.lb_pair in
          { c with Audit.lb_pair = (u, u) } );
      ( "witness pairs",
        fun c ->
          {
            c with
            Audit.tree =
              Option.map
                (fun w -> { w with Audit.w_parents = [] })
                c.Audit.tree;
          } );
      ( "witness pair's parent",
        fun c ->
          let bump w =
            match w.Audit.w_parents with
            | (v, p) :: rest -> { w with Audit.w_parents = (v, p + 1) :: rest }
            | [] -> w
          in
          { c with Audit.tree = Option.map bump c.Audit.tree } );
      ( "witness root",
        fun c ->
          {
            c with
            Audit.tree =
              Option.map
                (fun w -> { w with Audit.w_root = w.Audit.w_root + 1 })
                c.Audit.tree;
          } );
      ( "upper bound",
        fun c ->
          {
            c with
            Audit.diameter_ub = Option.map (fun u -> u + 2) c.Audit.diameter_ub;
          } );
      ( "lower bound",
        fun c -> { c with Audit.diameter_lb = c.Audit.diameter_lb + 1 } );
      ("color", fun c -> { c with Audit.color = c.Audit.color + 1 });
      ("strength", fun c -> { c with Audit.strong = not c.Audit.strong });
    ]

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

(* a post graph of another size is rejected with its sizes, and the
   lineage workspace still verifies the right graph afterwards *)
let test_wrong_size_post_rejected () =
  let s, recarve = decomp_session () in
  let s', rep = Repair.repair ~halo:1 ~recarve s (CR.delta ~crash:[ 10 ] ()) in
  let post = CR.graph s'.Repair.state in
  let n = Graph.n post in
  let verify post =
    match Repair.verify_cert ~prev:s ~post rep.Repair.cert with
    | r -> r
    | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  in
  List.iter
    (fun m ->
      let wrong =
        Graph.of_edge_seq ~n:m
          (Seq.filter (fun (u, v) -> u < m && v < m) (Graph.edges_seq post))
      in
      check
        Alcotest.(result unit string)
        (Printf.sprintf "post graph of %d nodes" m)
        (Error (Printf.sprintf "post graph has %d nodes, not %d" m n))
        (verify wrong))
    [ n - 1; n + 1 ];
  check Alcotest.(result unit string) "right post graph" (Ok ()) (verify post)

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
(* Lineage workspace: equal to the rebuild-everything reference         *)
(* ------------------------------------------------------------------ *)

module Ref = Workload_repair_ref

let labels_of cl n = Array.init n (Cluster.Clustering.cluster_of cl)

let same_sessions (s : Repair.session) (r : Ref.session) =
  let n = Graph.n (CR.graph s.Repair.state) in
  labels_of s.Repair.clustering n = labels_of r.Ref.clustering n
  && Cluster.Clustering.clusters s.Repair.clustering
     = Cluster.Clustering.clusters r.Ref.clustering
  && s.Repair.colors = r.Ref.colors
  && s.Repair.audit = r.Ref.audit
  && Graph.equal (CR.graph s.Repair.state) (CR.graph r.Ref.state)

let same_reports (a : Repair.report) (b : Repair.report) =
  a.Repair.dirty_clusters = b.Repair.dirty_clusters
  && a.Repair.touched_nodes = b.Repair.touched_nodes
  && a.Repair.touched_fraction = b.Repair.touched_fraction
  && a.Repair.fresh_clusters = b.Repair.fresh_clusters
  && a.Repair.carried_clusters = b.Repair.carried_clusters
  && a.Repair.cert = b.Repair.cert

(* the carried-certificate tamperings of the certificate tests, plus a
   fresh certificate whose lower bound is off by one (it passes the
   carried checks and falls to the full verify) *)
let tamperings (cert : Repair.cert) =
  let audit = cert.Repair.c_audit in
  let with_cert id f =
    {
      cert with
      Repair.c_audit =
        {
          audit with
          Audit.certs =
            List.map
              (fun (c : Audit.cert) -> if c.Audit.cluster = id then f c else c)
              audit.Audit.certs;
        };
    }
  in
  let carried =
    match cert.Repair.c_carried with
    | [] -> []
    | (_, nw) :: _ ->
        [
          with_cert nw (fun c ->
              { c with Audit.members = List.map Fun.id c.Audit.members });
          with_cert nw (fun c -> { c with Audit.tree = None });
          with_cert nw (fun c -> { c with Audit.diameter_ub = Some 9999 });
        ]
  in
  let fresh =
    match cert.Repair.c_fresh with
    | [] -> []
    | f :: _ ->
        [
          with_cert f (fun c ->
              { c with Audit.diameter_lb = c.Audit.diameter_lb + 1 });
        ]
  in
  let dirty =
    match cert.Repair.c_dirty with
    | [] -> []
    | _ :: rest -> [ { cert with Repair.c_dirty = rest } ]
  in
  (cert :: carried) @ fresh @ dirty

let lineage_case seed =
  let rng = Rng.create seed in
  let g = Random_graph.make rng (seed mod 3) in
  let carve = seed / 3 mod 2 = 1 in
  let halo = seed / 6 mod 3 in
  let engine = if seed / 18 mod 2 = 0 then "greedy" else "ls93" in
  let cost = Congest.Cost.create () and epsilon = 0.25 in
  let s, recarve =
    if carve then
      let a =
        Workload.Algorithms.find_carver
          (if engine = "greedy" then "thm2.2" else engine)
      in
      let cv = a.Workload.Algorithms.run ~cost ~seed g ~epsilon in
      ( Repair.start_carving cv,
        fun i -> Repair.recarve_carver a ~seed:(seed + i) ~epsilon )
    else
      let a = Workload.Algorithms.find_decomposer engine in
      let d = a.Workload.Algorithms.run ~cost ~seed g in
      ( Repair.start_decomposition d,
        fun i -> Repair.recarve_decomposer a ~seed:(seed + i) )
  in
  (g, s, recarve, halo)

let prop_workspace_matches_reference =
  QCheck2.Test.make ~count:150
    ~name:
      "lineage workspace repair and verify_cert equal the rebuild-everything \
       reference"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 5 20))
    (fun (seed, steps) ->
      let g, s0, recarve, halo = lineage_case seed in
      if Graph.n g < 4 then true
      else begin
        let rng = Rng.create (seed + 1) in
        let rec go i (s : Repair.session) (r : Ref.session) =
          i = steps
          ||
          let d = E2e_core.Churn.delta rng s.Repair.state in
          let s', rep = Repair.repair ~halo ~recarve:(recarve i) s d in
          let r', rrep = Ref.repair ~halo ~recarve:(recarve i) r d in
          let post = CR.graph s'.Repair.state in
          if not (same_sessions s' r' && same_reports rep rrep) then
            QCheck2.Test.fail_reportf "step %d: sessions or reports differ" i;
          List.iteri
            (fun j c ->
              let got = Repair.verify_cert ~prev:s ~post c in
              let want = Ref.verify_cert ~prev:r ~post c in
              if got <> want then
                QCheck2.Test.fail_reportf "step %d, certificate %d: %s vs %s" i
                  j
                  (match got with Ok () -> "ok" | Error e -> e)
                  (match want with Ok () -> "ok" | Error e -> e))
            (tamperings rep.Repair.cert);
          go (i + 1) s' r'
        in
        go 0 s0 (Ref.of_session s0)
      end)

(* ------------------------------------------------------------------ *)
(* The incremental verify decides exactly as the full checks            *)
(* ------------------------------------------------------------------ *)

let replace_cert (cert : Repair.cert) id f =
  let audit = cert.Repair.c_audit in
  {
    cert with
    Repair.c_audit =
      {
        audit with
        Audit.certs =
          List.map
            (fun (c : Audit.cert) -> if c.Audit.cluster = id then f c else c)
            audit.Audit.certs;
      };
  }

let cert_of (cert : Repair.cert) id =
  List.nth cert.Repair.c_audit.Audit.certs id

let cluster_of_node (cert : Repair.cert) v =
  List.find_opt
    (fun (c : Audit.cert) -> List.mem v c.Audit.members)
    cert.Repair.c_audit.Audit.certs

(* The tampered certificates of one step, each with the graph it is
   verified on: the certificate list of [tamperings], a [c_delta] that
   lies, carried certificates with a member dropped or added, a fresh
   certificate with a neighbour's color or a carried member, a domain
   without a carried member, a miscounted dead count, and the genuine
   certificate on the graph of a delta that also deletes an edge of a
   carried cluster's witness tree, or adds an edge between two carried
   clusters of one color. *)
let tampered_steps ~recarve (prev : Repair.session) d (cert : Repair.cert) post
    =
  let audit = cert.Repair.c_audit in
  let carried_with p =
    List.find_map
      (fun (_, nw) ->
        let c = cert_of cert nw in
        if p c then Some c else None)
      cert.Repair.c_carried
  in
  let on_post c = [ (c, post) ] in
  let lie =
    { cert with Repair.c_delta = CR.delta ~crash:[ 0 ] ~del_edges:[ (0, 1) ] () }
  in
  let dropped =
    match carried_with (fun c -> List.length c.Audit.members > 1) with
    | Some c ->
        on_post
          (replace_cert cert c.Audit.cluster (fun c ->
               { c with Audit.members = List.tl c.Audit.members }))
    | None -> []
  in
  let added =
    match (cert.Repair.c_carried, cert.Repair.c_fresh) with
    | (_, nw) :: _, f :: _ ->
        let v = List.hd (cert_of cert f).Audit.members in
        on_post
          (replace_cert cert nw (fun c ->
               {
                 c with
                 Audit.members = List.sort_uniq Int.compare (v :: c.Audit.members);
               }))
    | _ -> []
  in
  let fresh =
    match cert.Repair.c_fresh with
    | [] -> []
    | f :: _ ->
        let fc = cert_of cert f in
        (* a neighbouring cluster's color, or the next one *)
        let color =
          List.fold_left
            (fun acc v ->
              Array.fold_left
                (fun acc w ->
                  match cluster_of_node cert w with
                  | Some c when c.Audit.cluster <> f -> Some c.Audit.color
                  | _ -> acc)
                acc (Graph.neighbors post v))
            None fc.Audit.members
          |> Option.value ~default:(fc.Audit.color + 1)
        in
        let overlap =
          match cert.Repair.c_carried with
          | (_, nw) :: _ ->
              let v = List.hd (cert_of cert nw).Audit.members in
              on_post
                (replace_cert cert f (fun c ->
                     {
                       c with
                       Audit.members =
                         List.sort_uniq Int.compare (v :: c.Audit.members);
                     }))
          | [] -> []
        in
        on_post (replace_cert cert f (fun c -> { c with Audit.color = color }))
        @ overlap
  in
  (* a carried member swapped out of the domain for a node outside it,
     which keeps the dead count *)
  let domain =
    let outside =
      List.filter
        (fun v -> not (List.mem v audit.Audit.domain))
        (List.init (Graph.n post) Fun.id)
    in
    match (cert.Repair.c_carried, outside) with
    | (_, nw) :: _, y :: _ ->
        let v = List.hd (cert_of cert nw).Audit.members in
        on_post
          {
            cert with
            Repair.c_audit =
              {
                audit with
                Audit.domain =
                  List.sort Int.compare
                    (y :: List.filter (( <> ) v) audit.Audit.domain);
              };
          }
    | _ -> []
  in
  (* a fresh one-node cluster moved onto a carried one-node cluster's
     node, which keeps the dead count and every color *)
  let moved =
    let single (c : Audit.cert) = List.length c.Audit.members = 1 in
    match
      ( List.find_opt single (List.map (cert_of cert) cert.Repair.c_fresh),
        carried_with single )
    with
    | Some f, Some c ->
        let v = List.hd c.Audit.members in
        on_post
          (replace_cert cert f.Audit.cluster (fun f ->
               {
                 f with
                 Audit.members = [ v ];
                 color = c.Audit.color;
                 tree = Some { Audit.w_root = v; w_parents = []; w_height = 0 };
                 lb_pair = (v, v);
               }))
    | _ -> []
  in
  let dead =
    on_post
      {
        cert with
        Repair.c_audit = { audit with Audit.dead = audit.Audit.dead + 1 };
      }
  in
  (* the genuine certificate on the graph of a larger delta *)
  let st = prev.Repair.state in
  let on_delta d' =
    match CR.step st d' with
    | st' -> [ (cert, CR.graph st') ]
    | exception Invalid_argument _ -> []
  in
  let cut =
    match
      carried_with (fun c ->
          match c.Audit.tree with
          | Some { Audit.w_parents = (v, p) :: _; _ } ->
              not (List.mem (v, p) d.CR.del_edges || List.mem (p, v) d.CR.del_edges)
          | _ -> false)
    with
    | Some { Audit.tree = Some { Audit.w_parents = e :: _; _ }; _ } ->
        on_delta { d with CR.del_edges = e :: d.CR.del_edges }
    | _ -> []
  in
  let bridge =
    let carried =
      List.map (fun (_, nw) -> cert_of cert nw) cert.Repair.c_carried
    in
    let pre = CR.graph st in
    let up v = not (CR.is_down (CR.step st d) v) in
    let fits u v =
      u <> v && up u && up v
      && (not (Graph.is_edge pre u v))
      && not (List.mem (min u v, max u v) d.CR.add_edges
              || List.mem (max u v, min u v) d.CR.add_edges)
    in
    let rec search = function
      | [] -> []
      | (a : Audit.cert) :: rest -> (
          match
            List.find_map
              (fun (b : Audit.cert) ->
                if b.Audit.cluster > a.Audit.cluster && b.Audit.color = a.Audit.color
                then
                  let u = List.hd a.Audit.members and v = List.hd b.Audit.members in
                  if fits u v then Some (u, v) else None
                else None)
              rest
          with
          | Some e -> on_delta { d with CR.add_edges = e :: d.CR.add_edges }
          | None -> search rest)
    in
    search carried
  in
  (* an empty delta's certificate carries every weak cluster; on the
     graph of a delta that deletes a pair of a weak witness tree with
     both ends outside the cluster, only the weak re-check sees it *)
  let weak_cut =
    let outside (c : Audit.cert) =
      match c.Audit.tree with
      | Some w when not c.Audit.strong ->
          List.find_opt
            (fun (v, p) ->
              not (List.mem v c.Audit.members || List.mem p c.Audit.members))
            w.Audit.w_parents
      | _ -> None
    in
    match List.find_map outside prev.Repair.audit.Audit.certs with
    | Some e -> (
        let _, rep = Repair.repair ~recarve prev (CR.delta ()) in
        match CR.step st (CR.delta ~del_edges:[ e ] ()) with
        | st' -> [ (rep.Repair.cert, CR.graph st') ]
        | exception Invalid_argument _ -> [])
    | None -> []
  in
  on_post cert @ on_post lie @ dropped @ added @ fresh @ domain @ moved @ dead
  @ cut @ weak_cut
  @ bridge
  @ List.concat_map on_post (List.tl (tamperings cert))

let prop_incremental_verify_exact =
  QCheck2.Test.make ~count:20
    ~name:
      "verify_cert on a memo hit decides as the full checks, over 200-step \
       replays, sibling branches and tampered certificates"
    QCheck2.Gen.(pair (int_range 0 17) (int_range 0 5000))
    (fun (mode, s) ->
      let seed = mode + (18 * s) in
      let g, s0, recarve, halo = lineage_case seed in
      if Graph.n g < 5 then true
      else begin
        let rng = Rng.create (seed + 1) and sibling_rng = Rng.create (seed + 2) in
        let deltas = ref [] in
        let rejected = ref 0 in
        (* [prime] makes the memo the previous session's: it re-verifies
           the certificate that produced it *)
        let compare ~prime i what (prev : Repair.session) (cert, post) =
          prime ();
          let got = Repair.verify_cert ~prev ~post cert in
          let want = Ref.verify_cert ~prev:(Ref.of_session prev) ~post cert in
          if got <> want then
            QCheck2.Test.fail_reportf "seed %d, step %d, %s: %s vs %s" seed i
              what
              (match got with Ok () -> "ok" | Error e -> e)
              (match want with Ok () -> "ok" | Error e -> e);
          if got <> Ok () then incr rejected
        in
        let rec replay i steps (prev : Repair.session) prime =
          match steps with
          | [] -> ()
          | d :: rest ->
              let s', rep = Repair.repair ~halo ~recarve:(recarve i) prev d in
              let post = CR.graph s'.Repair.state in
              let cert = rep.Repair.cert in
              List.iteri
                (fun j t -> compare ~prime i (Printf.sprintf "case %d" j) prev t)
                (tampered_steps ~recarve:(recarve i) prev d cert post);
              (* a sibling branch of [prev] *)
              let d' = E2e_core.Churn.delta sibling_rng prev.Repair.state in
              let sib, srep = Repair.repair ~halo ~recarve:(recarve i) prev d' in
              compare ~prime i "sibling" prev
                (srep.Repair.cert, CR.graph sib.Repair.state);
              (* the step itself, on whatever memo the last check left *)
              if Repair.verify_cert ~prev ~post cert <> Ok () then
                QCheck2.Test.fail_reportf "seed %d, step %d rejected" seed i;
              (* and on [prev]'s memo, where the fast path must accept it:
                 a fast path that never accepts decides as the full
                 checks too *)
              if i > 0 then begin
                prime ();
                let hits = Repair.fast_accepts prev in
                if
                  Repair.verify_cert ~prev ~post cert <> Ok ()
                  || Repair.fast_accepts prev <> hits + 1
                then
                  QCheck2.Test.fail_reportf
                    "seed %d, step %d: the fast path did not accept it" seed
                    i
              end;
              replay (i + 1) rest s' (fun () ->
                  ignore (Repair.verify_cert ~prev ~post cert))
        in
        let st = ref s0.Repair.state in
        for _ = 1 to 200 do
          let d = E2e_core.Churn.delta rng !st in
          st := CR.step !st d;
          deltas := d :: !deltas
        done;
        let deltas = List.rev !deltas in
        (* two replays from the one shared first session *)
        replay 0 deltas s0 ignore;
        replay 0 deltas s0 ignore;
        !rejected > 0
      end)

(* one fresh cluster per re-carved node *)
let singletons sub =
  (Array.init (Graph.n sub) Fun.id, Array.make (Graph.n sub) 0)

(* Merges over hand-made plans that sessions never produce: an
   untouched cluster with a member in the region or down must lose it,
   and may then be met later in node order. The merge builds from the
   old clustering; the reference relabels every node. *)
let test_merge_trims_like_relabeling () =
  let g, cl = pairs_fixture () in
  let color_of c = c mod 2 in
  let agree what ~kind st (plan : CR.plan) =
    let m =
      CR.merge ~scratch:(CR.scratch (Graph.n g)) ~kind ~old:cl ~color_of ~plan
        ~state:st ~recarve:singletons
    in
    let r =
      Ref.merge ~kind ~old:cl ~color_of ~plan ~state:st ~recarve:singletons
    in
    let carried = ref [] in
    Array.iteri
      (fun o c -> if c >= 0 then carried := (o, c) :: !carried)
      r.Ref.old_to_new;
    check bool (what ^ ": clusters") true
      (Cluster.Clustering.clusters m.CR.clustering
       = Cluster.Clustering.clusters r.Ref.clustering
      && labels_of m.CR.clustering 8 = labels_of r.Ref.clustering 8);
    check bool (what ^ ": colors") true (m.CR.colors = r.Ref.colors);
    check bool (what ^ ": carried") true (m.CR.carried = List.rev !carried);
    check bool (what ^ ": fresh") true (m.CR.fresh = r.Ref.fresh)
  in
  let plan ?(dirty = []) region = { CR.dirty; region; seeds = [] } in
  let st0 = CR.init g in
  let crashed v = CR.step st0 (CR.delta ~crash:[ v ] ()) in
  List.iter
    (fun kind ->
      agree "region node of an untouched cluster" ~kind st0
        (plan ~dirty:[ 0 ] [ 0; 1; 3 ]);
      agree "first member leaves" ~kind st0 (plan [ 2 ]);
      agree "down member of an untouched cluster" ~kind (crashed 5) (plan []);
      agree "whole cluster leaves" ~kind (crashed 6) (plan [ 7 ]))
    [ CR.Decomposition; CR.Carving ]

(* A merge that raises — a bad plan, or a re-carve that breaks the
   decomposition contract after the scratch is half written — leaves
   the scratch clean for the next one. *)
let test_merge_scratch_after_failures () =
  let g, cl = pairs_fixture () in
  let sc = CR.scratch (Graph.n g) in
  let merge ?(recarve = singletons) sc plan =
    CR.merge ~scratch:sc ~kind:CR.Decomposition ~old:cl
      ~color_of:(fun c -> c mod 2)
      ~plan ~state:(CR.init g) ~recarve
  in
  let plan = { CR.dirty = [ 1 ]; region = [ 2; 3 ]; seeds = [] } in
  let expect msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  expect "Repair.merge: dirty cluster 4 out of range" (fun () ->
      merge sc { plan with CR.dirty = [ 1; 4 ] });
  expect "Repair.merge: region node 8 out of range" (fun () ->
      merge sc { plan with CR.region = [ 2; 3; 8 ] });
  expect "Repair.merge: decomposition recarve left node 3 unclustered"
    (fun () -> merge sc plan ~recarve:(fun _ -> ([| 0; -1 |], [| 0 |])));
  let other = { CR.dirty = [ 0 ]; region = [ 0; 1 ]; seeds = [] } in
  let m = merge sc other and fresh = merge (CR.scratch (Graph.n g)) other in
  check bool "same merge as on a new scratch" true
    (labels_of m.CR.clustering 8 = labels_of fresh.CR.clustering 8
    && m.CR.carried = fresh.CR.carried
    && m.CR.fresh = fresh.CR.fresh
    && m.CR.colors = fresh.CR.colors)

(* Per-step allocation of the grid-churn loop (repair + verify_cert)
   on a greedy 32x32 grid: words that go straight to the major heap
   (major - promoted, exact without a minor collection). The new
   clustering's cluster-of array (n words) plus the per-cluster arrays
   fit in 4n; an n-sized temporary per step would not. *)
let test_step_direct_major_words () =
  let g = Gen.grid 32 32 in
  let n = Graph.n g in
  let greedy = Workload.Algorithms.find_decomposer "greedy" in
  let s0 = Repair.start_decomposition (Baseline.Greedy.decompose g) in
  let rng = Rng.create 42 in
  let worst = ref 0.0 and total = ref 0.0 in
  let s = ref s0 in
  for i = 0 to 99 do
    let d = E2e_core.Churn.delta rng !s.Repair.state in
    let recarve = Repair.recarve_decomposer greedy ~seed:(42 + i) in
    let _, promoted0, major0 = Gc.counters () in
    let s', rep = Repair.repair ~halo:1 ~recarve !s d in
    let post = CR.graph s'.Repair.state in
    let verdict = Repair.verify_cert ~prev:!s ~post rep.Repair.cert in
    let _, promoted1, major1 = Gc.counters () in
    (match verdict with
    | Ok () -> ()
    | Error e -> Alcotest.failf "step %d rejected: %s" i e);
    let direct = major1 -. major0 -. (promoted1 -. promoted0) in
    worst := Float.max !worst direct;
    total := !total +. direct;
    s := s'
  done;
  let bound = 4.0 *. float_of_int n in
  check bool
    (Printf.sprintf "worst step %.0f direct words <= 4n = %.0f (mean %.0f)"
       !worst bound (!total /. 100.0))
    true (!worst <= bound)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "repair"
    [
      ( "state",
        [
          Alcotest.test_case "apply_edits" `Quick test_apply_edits;
          Alcotest.test_case "crash and revive" `Quick test_state_crash_revive;
          Alcotest.test_case "delta validation" `Quick test_step_validation;
          QCheck_alcotest.to_alcotest prop_apply_edits_matches_rebuild;
          Alcotest.test_case "step histories match the replay" `Quick
            test_step_histories;
          QCheck_alcotest.to_alcotest prop_step_matches_replay;
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
          Alcotest.test_case "carried certificates compared by value" `Quick
            test_carried_cert_by_value;
          Alcotest.test_case "tampered cluster ids rejected" `Quick
            test_tampered_cluster_id_rejected;
          Alcotest.test_case "post graph of another size rejected" `Quick
            test_wrong_size_post_rejected;
          Alcotest.test_case "grid256 single crash is local" `Quick
            test_grid256_single_crash_locality;
          QCheck_alcotest.to_alcotest prop_repair_equivalence;
        ] );
      ( "workspace",
        [
          QCheck_alcotest.to_alcotest prop_workspace_matches_reference;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 35 |])
            prop_incremental_verify_exact;
          Alcotest.test_case "merge trims untouched clusters like relabeling"
            `Quick test_merge_trims_like_relabeling;
          Alcotest.test_case "merge scratch survives failed merges" `Quick
            test_merge_scratch_after_failures;
          Alcotest.test_case "step direct major words within 4n" `Quick
            test_step_direct_major_words;
        ] );
    ]
