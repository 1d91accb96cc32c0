(* The raw CONGEST simulator: genuinely distributed node programs running
   in synchronous rounds with O(log n)-bit messages, which anchor the round
   accounting used by the polylog-round algorithms.

   Run with:  dune exec examples/congest_demo.exe *)

open Dsgraph

let () =
  (* show Sim.simulate's incomplete-run warnings, should any fire *)
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let rng = Rng.create 99 in
  let g = Gen.ensure_connected rng (Gen.erdos_renyi rng 64 0.06) in
  Format.printf "network: %a, bandwidth %d bits@." Graph.pp g
    (Congest.Bits.bandwidth ~n:(Graph.n g));

  (* leader election by min-identifier flooding *)
  let leaders, stats = Congest.Programs.leader_election g in
  Format.printf
    "leader election: leader %d elected everywhere=%b, %d rounds, %d \
     messages, max %d bits@."
    leaders.(0)
    (Array.for_all (fun l -> l = leaders.(0)) leaders)
    stats.Congest.Sim.rounds_used stats.Congest.Sim.total_messages
    stats.Congest.Sim.max_bits_seen;

  (* distributed BFS; cross-checked against the sequential implementation *)
  let (dist, parent), stats = Congest.Programs.bfs g ~source:leaders.(0) in
  let reference = Bfs.distances g ~source:leaders.(0) in
  Format.printf "BFS: matches sequential BFS=%b, %d rounds (ecc = %d)@."
    (dist = reference) stats.Congest.Sim.rounds_used
    (Array.fold_left max 0 reference);

  (* convergecast: every node learns its BFS-subtree size *)
  let counts, stats = Congest.Programs.subtree_counts g ~parent in
  Format.printf "convergecast: root counted %d/%d nodes, %d rounds@."
    counts.(leaders.(0)) (Graph.n g) stats.Congest.Sim.rounds_used;

  (* Luby's MIS: a complete randomized algorithm on the simulator *)
  let mis, stats = Apps.Luby.run g in
  Format.printf "Luby MIS: %d nodes, %s, %d rounds@."
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 mis)
    (match Apps.Mis.check g mis with Ok () -> "valid" | Error e -> e)
    stats.Congest.Sim.rounds_used;

  (* the flagship: the weak-diameter cluster-growing engine executed as a
     real node program — identical output to the step-granular engine *)
  let r = Weakdiam.Distributed.carve g ~epsilon:0.5 in
  Format.printf
    "distributed weak carving: matches engine=%b, %d simulated rounds \
     (%d steps x %d budget), max message %d bits@."
    (Weakdiam.Distributed.matches_engine r)
    r.Weakdiam.Distributed.sim_stats.Congest.Sim.rounds_used
    r.Weakdiam.Distributed.total_steps r.Weakdiam.Distributed.step_budget
    r.Weakdiam.Distributed.sim_stats.Congest.Sim.max_bits_seen;

  (* bandwidth is enforced, not just reported: an oversized message kills
     the run *)
  let oversized =
    {
      Congest.Sim.init = (fun ~node:_ ~neighbors:_ -> ());
      round =
        (fun ~node ~state:_ ~inbox:_ ~out ->
          if node = 0 then Congest.Sim.send out (Graph.neighbors g 0).(0) ();
          Congest.Sim.halt out);
    }
  in
  (try
     ignore
       (Congest.Sim.simulate ~bits:(fun () -> 10_000) g oversized)
   with Congest.Sim.Bandwidth_exceeded { node; dst; round; bits; bandwidth } ->
     Format.printf
       "bandwidth check: node %d tried to send %d bits > %d (to %d, round %d) \
        and was rejected@."
       node bits bandwidth dst round);

  (* observability: attach a trace sink and get the per-round event
     stream plus derived metrics for free *)
  let sink = Congest.Trace.sink () in
  let _, stats = Congest.Programs.leader_election ~trace:sink g in
  let metrics = Congest.Metrics.of_trace sink in
  Format.printf
    "tracing: %d events over %d rounds (%d messages); derived metrics:@.%a"
    (Congest.Trace.length sink) stats.Congest.Sim.rounds_used
    stats.Congest.Sim.total_messages Congest.Metrics.pp metrics;

  (* fault injection: leader election under a lossy adversary still
     terminates, but dropped updates are never resent, so nodes can elect
     inconsistent leaders — the failure mode Reliable exists to fix *)
  let adv =
    Congest.Fault.create
      (Congest.Fault.spec ~seed:7 ~drop:0.10 ~duplicate:0.02 ~delay:0.05 ())
  in
  let leaders', stats = Congest.Programs.leader_election ~adversary:adv g in
  Format.printf
    "lossy leader election: agreement preserved=%b, %d rounds, faults: %d \
     dropped %d duplicated %d delayed@."
    (leaders' = leaders) stats.Congest.Sim.rounds_used
    stats.Congest.Sim.faults.Congest.Sim.dropped
    stats.Congest.Sim.faults.Congest.Sim.duplicated
    stats.Congest.Sim.faults.Congest.Sim.delayed;

  (* the reliable transport makes a fault-intolerant program exact again:
     the weak-diameter carving through Reliable under drops + two crashes,
     validated on the surviving subgraph *)
  let adv =
    Congest.Fault.create
      (Congest.Fault.spec ~seed:11 ~drop:0.05
         ~crashes:[ (3, 5); (17, 9) ] ())
  in
  let rr = Weakdiam.Distributed.carve_reliable ~adversary:adv g ~epsilon:0.5 in
  let survivors =
    List.filter
      (fun v -> not (List.mem v rr.Weakdiam.Distributed.crashed))
      (List.init (Graph.n g) (fun i -> i))
  in
  let sub, back = Subgraph.induce g survivors in
  let labels =
    Array.init (Graph.n sub) (fun i ->
        let l = rr.Weakdiam.Distributed.cluster_of.(back.(i)) in
        if l < 0 then -1 else l)
  in
  let clustering = Cluster.Clustering.make sub ~cluster_of:labels in
  Format.printf
    "reliable weak carving under 5%% drop + crashes %a: non-adjacent on \
     survivors=%b, %d outer rounds (%d inner), %d retransmissions, dead \
     neighbors detected: %a@."
    Fmt.(Dump.list int)
    rr.Weakdiam.Distributed.crashed
    (Cluster.Clustering.non_adjacent clustering)
    rr.Weakdiam.Distributed.r_sim_stats.Congest.Sim.rounds_used
    rr.Weakdiam.Distributed.inner_rounds
    rr.Weakdiam.Distributed.transport.Congest.Reliable.retransmissions
    Fmt.(Dump.list int)
    rr.Weakdiam.Distributed.transport.Congest.Reliable.detected_dead;

  (* crashes can corrupt the carving's convergecast; the harness policy is
     detect-then-recover: re-run on the survivor subgraph. The end state is
     valid either way. *)
  let row =
    Workload.Faults.run
      {
        Workload.Faults.algorithm = Workload.Faults.Weakdiam;
        family = "er";
        n = 64;
        epsilon = 0.5;
        drop = 0.05;
        crashes = 2;
        seed = 11;
      }
  in
  Format.printf "graceful degradation: %a@." Workload.Faults.pp_row row
