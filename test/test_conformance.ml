(* Tests for the dynamic model-invariant verifier (Congest.Conformance):
   the per-round instrumentation must flag edge-discipline, halt-
   monotonicity, and inbox-order cheats; the full battery (instrument +
   verify_run, the local verify_program) must certify a
   well-behaved program (with the exact-sum bandwidth cross-check) and
   fail a nondeterministic one; and the whole-registry Workload.Conform
   sweep must pass on two families, fault-free and adversarial. *)

open Dsgraph
module Sim = Congest.Sim
module Conformance = Congest.Conformance

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let invariants violations =
  List.sort_uniq compare
    (List.map (fun v -> v.Conformance.invariant) violations)

(* run one wrapped round directly (outside Sim, which would itself raise
   on the edge cheats before we could observe the recording) *)
let direct_round g program ~node ~inbox =
  let state = program.Sim.init ~node ~neighbors:(Graph.neighbors g node) in
  program.Sim.round ~node ~state ~inbox:(Sim.Inbox.of_list inbox)
    ~out:(Sim.Out.create ())

let test_edge_discipline () =
  let g = Gen.path 3 in
  let rec_ = Conformance.recorder () in
  let cheat =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> ());
      round =
        (fun ~node:_ ~state:_ ~inbox:_ ~out ->
          (* node 0: 2 is not a neighbor, and 1 is hit twice *)
          Sim.send out 2 ();
          Sim.send out 1 ();
          Sim.send out 1 ();
          Sim.halt out);
    }
  in
  let wrapped = Conformance.instrument rec_ g cheat in
  let _ = direct_round g wrapped ~node:0 ~inbox:[] in
  let vs = Conformance.recorded rec_ in
  check (Alcotest.list Alcotest.string) "both edge cheats flagged"
    [ "edge-discipline" ] (invariants vs);
  check int "one per cheat" 2 (List.length vs)

let test_halt_monotonicity () =
  let g = Gen.path 2 in
  let rec_ = Conformance.recorder () in
  let calls = ref 0 in
  let cheat =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> ());
      round =
        (fun ~node:_ ~state:_ ~inbox:_ ~out ->
          incr calls;
          if !calls = 1 then Sim.halt out (* vote halt *)
          else Sim.send out 1 () (* then spontaneously wake up *));
    }
  in
  let wrapped = Conformance.instrument rec_ g cheat in
  let state = wrapped.Sim.init ~node:0 ~neighbors:(Graph.neighbors g 0) in
  let empty = Sim.Inbox.create () in
  let state = wrapped.Sim.round ~node:0 ~state ~inbox:empty ~out:(Sim.Out.create ()) in
  let _ = wrapped.Sim.round ~node:0 ~state ~inbox:empty ~out:(Sim.Out.create ()) in
  let vs = Conformance.recorded rec_ in
  check (Alcotest.list Alcotest.string) "halt cheat flagged"
    [ "halt-monotonic" ] (invariants vs);
  (* spontaneous send and the un-halt are separate findings *)
  check int "both symptoms recorded" 2 (List.length vs)

let test_order_invariance_flagged () =
  let g = Gen.path 3 in
  let rec_ = Conformance.recorder () in
  let order_dependent =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> 0);
      round =
        (fun ~node:_ ~state ~inbox ~out ->
          Sim.halt out;
          (* state = first sender in inbox order: order-dependent *)
          match Sim.Inbox.to_list inbox with (u, _) :: _ -> u | [] -> state);
    }
  in
  let wrapped =
    Conformance.instrument ~order_invariant:true rec_ g order_dependent
  in
  let _ = direct_round g wrapped ~node:1 ~inbox:[ (0, ()); (2, ()) ] in
  check (Alcotest.list Alcotest.string) "order dependence flagged"
    [ "order-invariant" ]
    (invariants (Conformance.recorded rec_))

let test_order_invariant_program_clean () =
  let g = Gen.grid 6 6 in
  let rec_ = Conformance.recorder () in
  let inst = Conformance.instrumentor ~order_invariant:true rec_ g in
  let leaders, _ =
    Congest.Programs.leader_election ~conformance:inst g
  in
  Array.iter (fun l -> check int "leader is min id" 0 l) leaders;
  check int "no violations on honest program" 0
    (List.length (Conformance.recorded rec_))

(* min-flood: the canonical well-behaved, order-invariant program *)
let flood g =
  {
    Sim.init = (fun ~node ~neighbors:_ -> (node, true));
    round =
      (fun ~node ~state:(best, dirty) ~inbox ~out ->
        let best' = Sim.Inbox.fold (fun acc _ m -> min acc m) best inbox in
        if dirty || best' < best then
          Graph.iter_neighbors g node (fun nb -> Sim.send out nb best')
        else Sim.halt out;
        (best', false));
  }

(* the full battery (a)-(e) for one node program: instrument it, run it
   twice under Sim.simulate (a fresh adversary per run, so fault
   schedules replay) and cross-check the traces against Sim.stats *)
let verify_program ~label ?order_invariant ?bandwidth ~bits g program =
  let rec_ = Conformance.recorder () in
  let wrapped = Conformance.instrument ?order_invariant rec_ g program in
  let run sink =
    let config =
      {
        Sim.Config.default with
        bandwidth;
        on_incomplete = `Ignore;
        trace = Some sink;
      }
    in
    let _, stats = Sim.simulate ~config ~bits g wrapped in
    [
      Conformance.Sim_totals
        {
          rounds = stats.Sim.rounds_used;
          messages = stats.Sim.total_messages;
          max_bits = stats.Sim.max_bits_seen;
        };
    ]
  in
  Conformance.verify_run ~label ~recorder:rec_ ~run ()

let find_check name (r : Conformance.report) =
  List.find (fun c -> c.Conformance.name = name) r.Conformance.checks

let test_verify_program_passes () =
  let g = Gen.grid 5 5 in
  let report =
    verify_program ~label:"flood" ~order_invariant:true
      ~bits:(fun _ -> 10)
      g (flood g)
  in
  check bool "report ok" true (Conformance.ok report);
  (* the exact-sum bandwidth cross-check: per-edge bit sums from the raw
     event stream = trace total = Metrics.of_trace histogram sum *)
  let bw = find_check "bandwidth-sum" report in
  check bool "exact bandwidth sum" true bw.Conformance.passed;
  check bool "replay determinism" true
    (find_check "replay-determinism" report).Conformance.passed;
  check bool "stats cross-check" true
    (find_check "sim-totals[0]" report).Conformance.passed

let test_verify_program_catches_nondeterminism () =
  let g = Gen.path 4 in
  (* global state that survives across the two replay runs *)
  let poison = ref 0 in
  let nondet =
    {
      Sim.init = (fun ~node ~neighbors:_ -> node);
      round =
        (fun ~node ~state ~inbox:_ ~out ->
          incr poison;
          if state >= 0 && node = 0 then begin
            Sim.send out 1 !poison;
            -1
          end
          else begin
            Sim.halt out;
            state
          end);
    }
  in
  let report =
    (* bits depend on the payload, so the leak shows up in the trace;
       widen the bandwidth so only determinism can fail *)
    verify_program ~label:"nondet" ~bandwidth:512
      ~bits:(fun m -> 8 + (m land 0xff))
      g nondet
  in
  check bool "nondeterministic program fails" false (Conformance.ok report);
  check bool "replay determinism is the failing check" false
    (find_check "replay-determinism" report).Conformance.passed

let test_verify_program_catches_order_cheat () =
  let g = Gen.grid 4 4 in
  (* BFS-like program whose parent choice follows inbox order, falsely
     registered as order-invariant *)
  let order_cheat =
    {
      Sim.init =
        (fun ~node ~neighbors:_ -> if node = 0 then (0, false) else (-1, false));
      round =
        (fun ~node ~state:(parent, announced) ~inbox ~out ->
          let parent =
            if parent >= 0 then parent
            else
              match Sim.Inbox.to_list inbox with (u, _) :: _ -> u | [] -> -1
          in
          if parent >= 0 && not announced then begin
            Graph.iter_neighbors g node (fun nb -> Sim.send out nb ());
            (parent, true)
          end
          else begin
            Sim.halt out;
            (parent, announced)
          end);
    }
  in
  let report =
    verify_program ~label:"order-cheat" ~order_invariant:true
      ~bits:(fun _ -> 4)
      g order_cheat
  in
  check bool "cheat caught" false (Conformance.ok report);
  check bool "as an order-invariance violation" true
    (List.exists
       (fun v -> v.Conformance.invariant = "order-invariant")
       report.Conformance.violations)

let test_conform_suite_on_two_families () =
  List.iter
    (fun family ->
      let rows = Workload.Conform.suite ~adversarial:true family ~n:48 in
      check bool
        (family.Workload.Suite.name ^ ": covers the whole registry")
        true
        (List.length rows
        >= List.length Workload.Algorithms.decomposers
           + List.length Workload.Algorithms.carvers);
      List.iter
        (fun row ->
          if not (Workload.Conform.ok row) then
            Format.eprintf "%a@." Conformance.pp_report
              row.Workload.Conform.report;
          check bool
            (Printf.sprintf "%s on %s (%s)" row.Workload.Conform.target
               row.Workload.Conform.family
               (if row.Workload.Conform.adversarial then "adv" else "clean"))
            true (Workload.Conform.ok row))
        rows)
    [ Workload.Suite.grid; Workload.Suite.path ]

let () =
  Alcotest.run "conformance"
    [
      ( "instrument",
        [
          Alcotest.test_case "edge discipline" `Quick test_edge_discipline;
          Alcotest.test_case "halt monotonicity" `Quick
            test_halt_monotonicity;
          Alcotest.test_case "order invariance flagged" `Quick
            test_order_invariance_flagged;
          Alcotest.test_case "honest program clean" `Quick
            test_order_invariant_program_clean;
        ] );
      ( "verify",
        [
          Alcotest.test_case "well-behaved program passes" `Quick
            test_verify_program_passes;
          Alcotest.test_case "nondeterminism caught" `Quick
            test_verify_program_catches_nondeterminism;
          Alcotest.test_case "order cheat caught" `Quick
            test_verify_program_catches_order_cheat;
        ] );
      ( "suite",
        [
          Alcotest.test_case "registry + programs on two families" `Slow
            test_conform_suite_on_two_families;
        ] );
    ]
