(* Tests for the phase-span profiler and its one per-span table:
   balanced/unbalanced enter-exit, replay attribution (the table
   invariants of Table_invariants on weak and strong algorithms,
   fault-free and adversarial, and over the whole registry), folded-stack
   round-trips, and the allocation-freedom of the spans-off path. *)

open Dsgraph
module Sim = Congest.Sim
module Trace = Congest.Trace
module Span = Congest.Span
module Fault = Congest.Fault

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let grid8 = Gen.grid 8 8

let er seed n =
  Gen.ensure_connected (Rng.create seed) (Gen.erdos_renyi (Rng.create seed) n 0.08)

let find_rollup path rolls =
  match List.find_opt (fun (r : Span.rollup) -> r.Span.path = path) rolls with
  | Some r -> r
  | None -> Alcotest.fail ("missing rollup for " ^ path)

(* ------------------------------------------------------------------ *)
(* Enter/exit mechanics                                                 *)
(* ------------------------------------------------------------------ *)

let test_unbalanced_exit_raises () =
  (* without a sink every call is a silent no-op *)
  Span.exit None;
  Span.enter None "phantom";
  let s = Trace.sink () in
  Span.enter (Some s) "a";
  Span.exit (Some s);
  check int "balanced again" 0 (Trace.span_depth s);
  Alcotest.check_raises "extra exit raises"
    (Invalid_argument "Trace.exit_span: unbalanced exit (no span is open)")
    (fun () -> Span.exit (Some s))

let test_enter_idx_names () =
  let s = Trace.sink () in
  Span.enter_idx (Some s) "color" 3;
  Span.enter_idx (Some s) "carve_iter" 7;
  Span.exit (Some s);
  Span.exit (Some s);
  let paths = List.map (fun (r : Span.rollup) -> r.Span.path) (Span.rollups s) in
  check bool "indexed paths" true
    (paths = [ "color=3"; "color=3/carve_iter=7" ])

let test_with_span_exception_safe () =
  let s = Trace.sink () in
  let res = Congest.Resource.create () in
  Congest.Resource.attach res s;
  (try
     Span.with_span (Some s) "risky" (fun () -> failwith "boom")
   with Failure _ -> ());
  check int "span closed on exception" 0 (Trace.span_depth s);
  let resource, _ = Congest.Resource.snapshot res in
  let r = find_rollup "risky" (Span.rollups ~resource s) in
  check int "one activation" 1 r.Span.entries;
  check bool "recorder saw the exit" true
    (match r.Span.resource with
    | Some x -> x.Congest.Resource.r_entries = 1
    | None -> false)

let test_capacity_drop_keeps_stack_balanced () =
  (* span events past capacity are dropped from the stream, but the
     live stack must stay balanced so exits never misfire *)
  let s = Trace.sink ~capacity:2 () in
  for i = 0 to 4 do
    Span.enter_idx (Some s) "deep" i
  done;
  check int "depth tracked past capacity" 5 (Trace.span_depth s);
  for _ = 0 to 4 do
    Span.exit (Some s)
  done;
  check int "balanced" 0 (Trace.span_depth s);
  (* replay of the truncated stream is best-effort, not an error *)
  ignore (Span.rollups s)

(* ------------------------------------------------------------------ *)
(* Replay attribution on a hand-built stream                            *)
(* ------------------------------------------------------------------ *)

let test_manual_attribution () =
  let s = Trace.sink () in
  Trace.record s (Trace.Round_start { round = 1 });
  Span.enter (Some s) "a";
  Trace.record s
    (Trace.Cost_charged { tag = "t"; rounds = 2; messages = 3; max_bits = 8 });
  Span.enter (Some s) "b";
  Trace.record s (Trace.Round_start { round = 2 });
  Trace.record s (Trace.Message_sent { round = 2; src = 0; dst = 1; bits = 12 });
  Span.exit (Some s);
  Span.exit (Some s);
  let rolls = Span.rollups s in
  let paths = List.map (fun (r : Span.rollup) -> r.Span.path) rolls in
  check bool "first-seen order" true (paths = [ Trace.unspanned; "a"; "a/b" ]);
  let un = find_rollup Trace.unspanned rolls in
  check int "pre-span round is unspanned" 1 un.Span.rounds;
  check int "unspanned depth" 0 un.Span.depth;
  let a = find_rollup "a" rolls in
  check int "a is a root" 1 a.Span.depth;
  check int "a self rounds" 2 a.Span.rounds;
  check int "a inclusive rounds" 3 a.Span.rounds_incl;
  check int "a self messages" 3 a.Span.messages;
  check int "a inclusive messages" 4 a.Span.messages_incl;
  check int "a inclusive bits" 12 a.Span.bits_incl;
  check int "a self bits" 0 a.Span.bits;
  check int "a max bits" 8 a.Span.max_message_bits;
  let b = find_rollup "a/b" rolls in
  check int "b depth" 2 b.Span.depth;
  check int "b self bits" 12 b.Span.bits;
  check int "b self rounds" 1 b.Span.rounds

(* ------------------------------------------------------------------ *)
(* Exact-sum property on real algorithms                                *)
(* ------------------------------------------------------------------ *)

(* every attribution run builds one table with a recorder attached and
   the causal split joined, and checks all of its invariants *)
let assert_sums name run = Table_invariants.traced ~name run

let test_sums_weak_fault_free () =
  let rolls =
    assert_sums "weak carve" (fun sink ->
        ignore (Weakdiam.Distributed.carve ~trace:sink grid8 ~epsilon:0.5))
  in
  let root = find_rollup "weakdiam_sim" rolls in
  check bool "simulate phase under the root" true
    (List.exists
       (fun (r : Span.rollup) -> r.Span.path = "weakdiam_sim/simulate")
       rolls);
  check bool "root sees every simulated round" true
    (root.Span.rounds_incl > 0)

let test_sums_weak_adversarial () =
  let adv =
    Fault.create (Fault.spec ~seed:5 ~drop:0.05 ~duplicate:0.02 ~delay:0.03 ())
  in
  let dropped = ref 0 in
  let rolls =
    assert_sums "weak carve reliable+adversary" (fun sink ->
        let r =
          Weakdiam.Distributed.carve_reliable ~adversary:adv ~trace:sink
            (Gen.grid 5 5) ~epsilon:0.5
        in
        dropped := r.Weakdiam.Distributed.r_sim_stats.Sim.faults.Sim.dropped)
  in
  check bool "adversary actually dropped" true (!dropped > 0);
  ignore (find_rollup "weakdiam_reliable" rolls)

let test_sums_strong_fault_free () =
  (* engine-level run: the netdecomp color loop over Theorem 2.2 carving,
     every Cost.charge attributed through the open span path *)
  let rolls =
    assert_sums "thm2.3" (fun sink ->
        let cost = Congest.Cost.create ~trace:sink () in
        ignore (Strongdecomp.Netdecomp.strong ~cost grid8))
  in
  let root = find_rollup "netdecomp" rolls in
  check bool "color phases recorded" true
    (List.exists
       (fun (r : Span.rollup) -> r.Span.path = "netdecomp/color=0")
       rolls);
  check bool "transform nested below carving" true
    (List.exists
       (fun (r : Span.rollup) ->
         r.Span.depth >= 4
         && String.length r.Span.path >= 9
         && String.sub r.Span.path 0 9 = "netdecomp")
       rolls);
  check bool "root inclusive covers the run" true (root.Span.rounds_incl > 0)

let test_sums_strong_adversarial () =
  let adv = Fault.create (Fault.spec ~seed:9 ~drop:0.08 ~delay:0.05 ()) in
  let dropped = ref 0 in
  let rolls =
    assert_sums "mpx under faults" (fun sink ->
        let r =
          Baseline.Mpx_distributed.partition ~adversary:adv ~trace:sink
            (er 3 80) ~beta:0.4
        in
        dropped := r.Baseline.Mpx_distributed.sim_stats.Sim.faults.Sim.dropped)
  in
  check bool "adversary actually dropped" true (!dropped > 0);
  ignore (find_rollup "mpx_partition" rolls)

(* one table per registry run: every decomposer and carver on a grid,
   plus the weak carving on the round-by-round simulator, whose trace
   carries the per-message stream the causal split is built from *)
let test_registry_invariants () =
  let g = Workload.Suite.grid in
  List.iter
    (fun (d : Workload.Algorithms.decomposer) ->
      ignore
        (assert_sums (d.Workload.Algorithms.name ^ "/grid64") (fun sink ->
             ignore (Workload.Measure.decomposition_row ~trace:sink d g ~n:64))))
    Workload.Algorithms.decomposers;
  List.iter
    (fun (c : Workload.Algorithms.carver) ->
      ignore
        (assert_sums (c.Workload.Algorithms.name ^ "/grid64") (fun sink ->
             ignore
               (Workload.Measure.carving_row ~trace:sink c g ~n:64
                  ~epsilon:0.25))))
    Workload.Algorithms.carvers;
  let rolls =
    assert_sums "weak carve simulated" (fun sink ->
        ignore (Weakdiam.Distributed.carve ~trace:sink grid8 ~epsilon:0.5))
  in
  check bool "the simulated chain leaves slack somewhere" true
    (List.exists
       (fun (r : Span.rollup) ->
         match r.Span.causal with Some s -> s.Span.slack > 0 | None -> false)
       rolls)

(* ------------------------------------------------------------------ *)
(* Folded stacks                                                        *)
(* ------------------------------------------------------------------ *)

let test_folded_round_trip () =
  let sink = Trace.sink () in
  ignore (Weakdiam.Distributed.carve ~trace:sink grid8 ~epsilon:0.5);
  let rolls = Span.rollups sink in
  List.iter
    (fun weight ->
      let self (r : Span.rollup) =
        match weight with
        | `Rounds -> r.Span.rounds
        | `Messages -> r.Span.messages
        | `Bits -> r.Span.bits
      in
      match Span.of_folded (Span.to_folded ~weight:(weight :> Span.weight) rolls) with
      | Error e -> Alcotest.fail e
      | Ok pairs ->
          let expected =
            List.filter_map
              (fun r -> if self r > 0 then Some (r.Span.path, self r) else None)
              rolls
          in
          check bool "folded round-trips to the nonzero self weights" true
            (pairs = expected))
    [ `Rounds; `Messages; `Bits ]

let test_folded_rejects_garbage () =
  check bool "missing weight" true (Result.is_error (Span.of_folded "justpath"));
  check bool "non-numeric weight" true
    (Result.is_error (Span.of_folded "a;b notanumber"))

(* ------------------------------------------------------------------ *)
(* Allocation behavior                                                  *)
(* ------------------------------------------------------------------ *)

let test_spans_off_allocation_free () =
  (* both no-op paths — no sink at all, and a sink with spans disabled —
     must not allocate in a hot loop *)
  let none : Trace.sink option = None in
  let off = Some (Trace.sink ~spans:false ()) in
  let observe trace () =
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      Span.enter trace "phase";
      Span.exit trace
    done;
    Gc.minor_words () -. before
  in
  List.iter
    (fun (name, trace) ->
      ignore (observe trace ());
      let delta = observe trace () in
      check bool
        (Printf.sprintf "%s allocates nothing (%.0f words)" name delta)
        true (delta < 64.0))
    [ ("no sink", none); ("spans disabled", off) ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "span"
    [
      ( "mechanics",
        [
          Alcotest.test_case "unbalanced exit" `Quick test_unbalanced_exit_raises;
          Alcotest.test_case "enter_idx names" `Quick test_enter_idx_names;
          Alcotest.test_case "with_span exception-safe" `Quick
            test_with_span_exception_safe;
          Alcotest.test_case "capacity drop keeps stack" `Quick
            test_capacity_drop_keeps_stack_balanced;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "manual stream" `Quick test_manual_attribution;
          Alcotest.test_case "weak fault-free sums" `Quick
            test_sums_weak_fault_free;
          Alcotest.test_case "weak adversarial sums" `Quick
            test_sums_weak_adversarial;
          Alcotest.test_case "strong fault-free sums" `Quick
            test_sums_strong_fault_free;
          Alcotest.test_case "strong adversarial sums" `Quick
            test_sums_strong_adversarial;
          Alcotest.test_case "table invariants over the registry" `Quick
            test_registry_invariants;
        ] );
      ( "folded",
        [
          Alcotest.test_case "round trip" `Quick test_folded_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_folded_rejects_garbage;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "spans-off path free" `Quick
            test_spans_off_allocation_free;
        ] );
    ]
