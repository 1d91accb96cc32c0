(* Tests for Congest.Causal, the happens-before replay analyzer.

   The load-bearing property is the exact-sum acceptance criterion: on
   every fault-free registry run (engine-level, Cost_charged only) the
   critical-path length equals the measured round count exactly, with
   zero slack. Hand-built traces pin down the chain arithmetic, the
   fault degradation to [exact = false]; a real simulator run
   cross-checks against Sim.stats. The per-span critical/slack split is
   one of the table invariants test_span checks over the registry. *)

module Trace = Congest.Trace
module Causal = Congest.Causal
open Dsgraph

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* sim-shaped hand trace: within a round, deliveries (of the previous
   round's sends) precede sends, as the simulator emits them *)
let chain_sink () =
  let s = Trace.sink () in
  Trace.record s (Trace.Round_start { round = 1 });
  Trace.emit_message_sent s ~round:1 ~src:0 ~dst:1 ~bits:8;
  (* a parallel message off the chain: same shape, shorter chain *)
  Trace.emit_message_sent s ~round:1 ~src:3 ~dst:4 ~bits:16;
  Trace.record s
    (Trace.Round_end { round = 1; sent = 2; delivered = 0; in_flight = 2; halted = 0 });
  Trace.record s (Trace.Round_start { round = 2 });
  Trace.emit_message_delivered s ~round:2 ~src:0 ~dst:1;
  Trace.emit_message_delivered s ~round:2 ~src:3 ~dst:4;
  Trace.emit_message_sent s ~round:2 ~src:1 ~dst:2 ~bits:8;
  Trace.record s
    (Trace.Round_end { round = 2; sent = 1; delivered = 2; in_flight = 1; halted = 0 });
  Trace.record s (Trace.Round_start { round = 3 });
  Trace.emit_message_delivered s ~round:3 ~src:1 ~dst:2;
  Trace.record s
    (Trace.Round_end { round = 3; sent = 0; delivered = 1; in_flight = 0; halted = 5 });
  s

let test_hand_chain () =
  let t = Causal.analyze (chain_sink ()) in
  check int "sim rounds counted" 3 t.Causal.sim_rounds;
  check int "no engine rounds" 0 t.Causal.engine_rounds;
  check int "total rounds" 3 t.Causal.rounds;
  check bool "fault-free trace is exact" true t.Causal.exact;
  (* 0 -> 1 (rounds 1->2) then 1 -> 2 (rounds 2->3): chain value 2 *)
  check int "chain rounds" 2 t.Causal.chain_rounds;
  check int "chain hops" 2 (List.length t.Causal.chain);
  check int "critical = chain (no engine part)" 2 t.Causal.critical_rounds;
  (* round 1 holds only the initial sends: slack *)
  check int "slack rounds" 1 t.Causal.slack_rounds;
  (match t.Causal.chain with
  | [ h1; h2 ] ->
      check int "hop 1 src" 0 h1.Causal.src;
      check int "hop 1 dst" 1 h1.Causal.dst;
      check int "hop 1 delivered one round after send"
        (h1.Causal.sent_round + 1) h1.Causal.delivered_round;
      check int "hop 2 extends from hop 1's destination" h1.Causal.dst
        h2.Causal.src;
      check bool "hops causally ordered" true
        (h2.Causal.sent_round >= h1.Causal.delivered_round)
  | _ -> Alcotest.fail "expected a two-hop chain");
  (* node depths: the chain grows 0 -> 1 -> 2; the side message gives 4
     depth 1; senders that receive nothing stay at 0 *)
  check int "depth at chain end" 2 t.Causal.node_depth.(2);
  check int "depth mid-chain" 1 t.Causal.node_depth.(1);
  check int "depth off-chain" 1 t.Causal.node_depth.(4);
  check int "depth at source" 0 t.Causal.node_depth.(0);
  (* rounds 2 and 3 are on the chain; round 1 is not *)
  check bool "round 1 slack" false t.Causal.round_critical.(1);
  check bool "round 2 critical" true t.Causal.round_critical.(2);
  check bool "round 3 critical" true t.Causal.round_critical.(3);
  (* exactly chain_rounds rounds are marked critical (disjoint hops) *)
  let marked = ref 0 in
  Array.iter (fun b -> if b then incr marked) t.Causal.round_critical;
  check int "marked rounds = chain rounds" t.Causal.chain_rounds !marked

let test_faults_degrade_exactness () =
  let s = chain_sink () in
  Trace.record s
    (Trace.Message_dropped { round = 3; src = 2; dst = 3; reason = Trace.Adversary });
  let t = Causal.analyze s in
  check bool "drop clears exact" false t.Causal.exact;
  let s = chain_sink () in
  Trace.record s (Trace.Message_delayed { round = 3; src = 2; dst = 3; delay = 2 });
  check bool "delay clears exact" false (Causal.analyze s).Causal.exact;
  (* an unmatched delivery (no prior send on that edge) also degrades *)
  let s = chain_sink () in
  Trace.emit_message_delivered s ~round:3 ~src:7 ~dst:8;
  check bool "unmatched delivery clears exact" false
    (Causal.analyze s).Causal.exact

let test_empty_sink () =
  let t = Causal.analyze (Trace.sink ()) in
  check int "no rounds" 0 t.Causal.rounds;
  check int "no chain" 0 (List.length t.Causal.chain);
  check int "no nodes" 0 t.Causal.nodes;
  check bool "vacuously exact" true t.Causal.exact

(* THE acceptance property: engine-level registry runs are a single
   sequential thread, so critical = rounds and slack = 0, exactly *)
let test_registry_exact_sum () =
  let run_decomposer (d : Workload.Algorithms.decomposer) family n =
    let sink = Trace.sink () in
    let row =
      Workload.Measure.decomposition_row ~trace:sink d family ~n
    in
    let t = Causal.analyze sink in
    let label what =
      Printf.sprintf "%s/%s n=%d: %s" d.Workload.Algorithms.name
        family.Workload.Suite.name n what
    in
    check int (label "critical path = measured rounds")
      row.Workload.Measure.rounds t.Causal.critical_rounds;
    check int (label "no slack") 0 t.Causal.slack_rounds;
    check bool (label "exact") true t.Causal.exact
  in
  List.iter
    (fun d ->
      run_decomposer d Workload.Suite.grid 64;
      run_decomposer d Workload.Suite.erdos_renyi 48)
    Workload.Algorithms.decomposers;
  List.iter
    (fun (c : Workload.Algorithms.carver) ->
      let sink = Trace.sink () in
      let row =
        Workload.Measure.carving_row ~trace:sink c Workload.Suite.grid ~n:64
          ~epsilon:0.25
      in
      let t = Causal.analyze sink in
      let label what =
        Printf.sprintf "%s/grid64: %s" c.Workload.Algorithms.name what
      in
      check int (label "critical path = measured rounds")
        row.Workload.Measure.rounds t.Causal.critical_rounds;
      check int (label "no slack") 0 t.Causal.slack_rounds)
    Workload.Algorithms.carvers

let test_simulated_run () =
  let g = Gen.grid 8 8 in
  let sink = Trace.sink () in
  let r = Weakdiam.Distributed.carve ~trace:sink g ~epsilon:0.5 in
  let t = Causal.analyze sink in
  check int "sim rounds match Sim.stats"
    r.Weakdiam.Distributed.sim_stats.Congest.Sim.rounds_used
    t.Causal.sim_rounds;
  check bool "fault-free sim run is exact" true t.Causal.exact;
  check bool "critical path bounded by rounds" true
    (t.Causal.critical_rounds <= t.Causal.rounds);
  check bool "nonempty chain on a real run" true (t.Causal.chain <> []);
  (* consecutive hops occupy disjoint, ordered round intervals *)
  let rec ordered = function
    | h1 :: (h2 :: _ as rest) ->
        h1.Causal.delivered_round > h1.Causal.sent_round
        && h2.Causal.sent_round >= h1.Causal.delivered_round
        && ordered rest
    | [ h ] -> h.Causal.delivered_round > h.Causal.sent_round
    | [] -> true
  in
  check bool "chain hops causally ordered" true (ordered t.Causal.chain)

let test_metrics_emitter () =
  let sink = Trace.sink () in
  ignore (Weakdiam.Distributed.carve ~trace:sink (Gen.grid 8 8) ~epsilon:0.5);
  let t = Causal.analyze sink in
  let m = Causal.metrics t in
  let cv name =
    Congest.Metrics.counter_value (Congest.Metrics.counter m name)
  in
  check int "causal_rounds counter" t.Causal.rounds (cv "causal_rounds");
  check int "causal_critical_rounds counter" t.Causal.critical_rounds
    (cv "causal_critical_rounds");
  check int "causal_slack_rounds counter" t.Causal.slack_rounds
    (cv "causal_slack_rounds");
  check int "causal_chain_hops counter"
    (List.length t.Causal.chain)
    (cv "causal_chain_hops");
  let active =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
      t.Causal.node_active
  in
  check int "one slack observation per active node" active
    (Congest.Metrics.hist_count
       (Congest.Metrics.histogram m "causal_node_slack"))

let () =
  Alcotest.run "causal"
    [
      ( "causal",
        [
          Alcotest.test_case "hand-built chain arithmetic" `Quick
            test_hand_chain;
          Alcotest.test_case "faults degrade to approximate" `Quick
            test_faults_degrade_exactness;
          Alcotest.test_case "empty sink" `Quick test_empty_sink;
          Alcotest.test_case "registry runs: critical = rounds exactly"
            `Quick test_registry_exact_sum;
          Alcotest.test_case "simulated run cross-checks" `Quick
            test_simulated_run;
          Alcotest.test_case "metrics emitter" `Quick test_metrics_emitter;
        ] );
    ]
