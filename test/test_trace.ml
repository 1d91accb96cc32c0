(* Tests for the observability layer: Congest.Trace event streams checked
   against the simulator's own stats (for a weak and a strong algorithm,
   fault-free and adversarial), JSONL round-trips, the packed sink's
   allocation behavior, and Metrics derivation. *)

open Dsgraph
module Sim = Congest.Sim
module Trace = Congest.Trace
module Metrics = Congest.Metrics
module Fault = Congest.Fault

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let count p sink =
  let c = ref 0 in
  Trace.iter (fun ev -> if p ev then incr c) sink;
  !c

let grid8 = Gen.grid 8 8
let er seed n = Gen.ensure_connected (Rng.create seed) (Gen.erdos_renyi (Rng.create seed) n 0.08)

(* ------------------------------------------------------------------ *)
(* Trace/stats agreement                                                *)
(* ------------------------------------------------------------------ *)

(* the invariants every simulated run must satisfy, traced *)
let agree name (stats : Sim.stats) sink =
  check int (name ^ ": nothing truncated") 0 (Trace.truncated sink);
  check int (name ^ ": sent events = total_messages") stats.Sim.total_messages
    (count (function Trace.Message_sent _ -> true | _ -> false) sink);
  check int (name ^ ": round_start events = rounds_used") stats.Sim.rounds_used
    (count (function Trace.Round_start _ -> true | _ -> false) sink);
  check int (name ^ ": round_end events = rounds_used") stats.Sim.rounds_used
    (count (function Trace.Round_end _ -> true | _ -> false) sink);
  check int (name ^ ": dropped events = faults.dropped")
    stats.Sim.faults.Sim.dropped
    (count (function Trace.Message_dropped _ -> true | _ -> false) sink);
  check int (name ^ ": duplicated events = faults.duplicated")
    stats.Sim.faults.Sim.duplicated
    (count (function Trace.Message_duplicated _ -> true | _ -> false) sink);
  check int (name ^ ": delayed events = faults.delayed")
    stats.Sim.faults.Sim.delayed
    (count (function Trace.Message_delayed _ -> true | _ -> false) sink);
  let high_water =
    let m = ref 0 in
    Trace.iter
      (function
        | Trace.Bandwidth_high_water { bits; _ } -> m := max !m bits
        | _ -> ())
      sink;
    !m
  in
  check int (name ^ ": high-water = max_bits_seen") stats.Sim.max_bits_seen
    high_water

let test_agreement_weak_fault_free () =
  let sink = Trace.sink () in
  let r = Weakdiam.Distributed.carve ~trace:sink grid8 ~epsilon:0.5 in
  check bool "carving matches engine" true (Weakdiam.Distributed.matches_engine r);
  agree "weak carve" r.Weakdiam.Distributed.sim_stats sink;
  (* a complete fault-free run delivers every message it sends *)
  check int "delivered = sent"
    (count (function Trace.Message_sent _ -> true | _ -> false) sink)
    (count (function Trace.Message_delivered _ -> true | _ -> false) sink)

let test_agreement_weak_adversarial () =
  let adv = Fault.create (Fault.spec ~seed:5 ~drop:0.05 ~duplicate:0.02 ~delay:0.03 ()) in
  let sink = Trace.sink () in
  (* the reliable wrapper multiplies traffic; a 5x5 grid keeps the stream
     well under the sink's capacity *)
  let r =
    Weakdiam.Distributed.carve_reliable ~adversary:adv ~trace:sink
      (Gen.grid 5 5) ~epsilon:0.5
  in
  let stats = r.Weakdiam.Distributed.r_sim_stats in
  check bool "adversary actually dropped" true (stats.Sim.faults.Sim.dropped > 0);
  agree "weak carve reliable+adversary" stats sink

let test_agreement_strong_fault_free () =
  let sink = Trace.sink () in
  let r = Baseline.Mpx_distributed.partition ~trace:sink (er 3 80) ~beta:0.4 in
  agree "mpx partition" r.Baseline.Mpx_distributed.sim_stats sink

let test_agreement_strong_adversarial () =
  let adv = Fault.create (Fault.spec ~seed:9 ~drop:0.08 ~delay:0.05 ()) in
  let sink = Trace.sink () in
  let r =
    Baseline.Mpx_distributed.partition ~adversary:adv ~trace:sink (er 3 80)
      ~beta:0.4
  in
  let stats = r.Baseline.Mpx_distributed.sim_stats in
  check bool "adversary actually dropped" true (stats.Sim.faults.Sim.dropped > 0);
  agree "mpx partition under faults" stats sink

(* ------------------------------------------------------------------ *)
(* Determinism                                                          *)
(* ------------------------------------------------------------------ *)

let test_event_stream_deterministic () =
  let run () =
    let sink = Trace.sink () in
    let adv = Fault.create (Fault.spec ~seed:7 ~drop:0.05 ~duplicate:0.02 ()) in
    ignore
      (Baseline.Mpx_distributed.partition ~seed:2 ~adversary:adv ~trace:sink
         (er 4 60) ~beta:0.5);
    Trace.events sink
  in
  let a = run () and b = run () in
  check int "same length" (List.length a) (List.length b);
  check bool "identical event streams" true (a = b)

(* ------------------------------------------------------------------ *)
(* Sink mechanics                                                       *)
(* ------------------------------------------------------------------ *)

let test_capacity_truncation () =
  let s = Trace.sink ~capacity:10 () in
  for round = 1 to 25 do
    Trace.record s (Trace.Round_start { round })
  done;
  check int "length capped" 10 (Trace.length s);
  check int "overflow counted" 15 (Trace.truncated s);
  (* the first 10 events are the ones retained *)
  (match List.rev (Trace.events s) with
  | Trace.Round_start { round } :: _ -> check int "last retained" 10 round
  | _ -> Alcotest.fail "unexpected event");
  Trace.clear s;
  check int "cleared" 0 (Trace.length s);
  check int "cleared truncation" 0 (Trace.truncated s)

let test_spill_streams_past_capacity () =
  let path = Filename.temp_file "trace_spill" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* capacity 16, 10k events: the overwhelming majority live on disk *)
      let s = Trace.sink ~capacity:16 ~spill:path () in
      for round = 1 to 5_000 do
        Trace.record s (Trace.Round_start { round });
        Trace.emit_message_sent s ~round ~src:(round mod 7)
          ~dst:((round + 1) mod 7) ~bits:round
      done;
      check int "nothing truncated" 0 (Trace.truncated s);
      check int "all events retained" 10_000 (Trace.length s);
      check bool "spilled to disk" true (Trace.spilled s > 9_000);
      (* iter replays the spilled prefix then the in-memory tail, in
         emission order *)
      let next = ref 1 and ok = ref true in
      Trace.iter
        (fun ev ->
          (match ev with
          | Trace.Round_start { round } -> if round <> !next then ok := false
          | Trace.Message_sent { round; bits; _ } ->
              if round <> !next || bits <> !next then ok := false;
              incr next
          | _ -> ok := false))
        s;
      check bool "replay order intact" true !ok;
      check int "replayed everything" 5_001 !next;
      (* random access crosses the disk/memory boundary transparently *)
      (match Trace.events s with
      | Trace.Round_start { round } :: _ -> check int "first event" 1 round
      | _ -> Alcotest.fail "unexpected first event");
      Trace.clear s;
      check int "cleared" 0 (Trace.length s);
      check int "cleared spill" 0 (Trace.spilled s);
      check bool "spill file removed" false (Sys.file_exists path))

let test_spill_jsonl_matches_memory () =
  (* the same workload traced into an unbounded in-memory sink and a
     tiny spilling sink must serialize identically *)
  let run sink =
    let adv = Fault.create (Fault.spec ~seed:7 ~drop:0.05 ~duplicate:0.02 ()) in
    ignore
      (Baseline.Mpx_distributed.partition ~seed:2 ~adversary:adv ~trace:sink
         (er 4 60) ~beta:0.5);
    Trace.to_jsonl sink
  in
  let mem = run (Trace.sink ()) in
  let path = Filename.temp_file "trace_spill" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let spilling = Trace.sink ~capacity:8 ~spill:path () in
      let disk = run spilling in
      check bool "spilled at all" true (Trace.spilled spilling > 0);
      check bool "identical serialization" true (mem = disk))

let test_off_path_allocation_free () =
  (* the simulator's guard pattern: with no sink attached, the emission
     site must not allocate anything *)
  let trace : Trace.sink option = None in
  let observe () =
    let before = Gc.minor_words () in
    for round = 1 to 10_000 do
      match trace with
      | None -> ()
      | Some s -> Trace.record s (Trace.Round_start { round })
    done;
    Gc.minor_words () -. before
  in
  ignore (observe ());
  let delta = observe () in
  check bool
    (Printf.sprintf "no-sink loop allocates nothing (%.0f words)" delta)
    true (delta < 64.0)

let test_hot_emitters_allocation_free () =
  (* the packed emitters never allocate once the buffer has grown *)
  let s = Trace.sink () in
  let burst () =
    for round = 1 to 10_000 do
      Trace.emit_message_sent s ~round ~src:1 ~dst:2 ~bits:8;
      Trace.emit_message_delivered s ~round ~src:1 ~dst:2
    done
  in
  burst ();
  (* buffer is now sized; emitting into the cleared sink must be free *)
  Trace.clear s;
  let before = Gc.minor_words () in
  burst ();
  let delta = Gc.minor_words () -. before in
  check bool
    (Printf.sprintf "warm emitters allocate nothing (%.0f words)" delta)
    true (delta < 64.0);
  check int "events stored" 20_000 (Trace.length s)

let test_emitters_equal_record () =
  let a = Trace.sink () and b = Trace.sink () in
  Trace.emit_message_sent a ~round:3 ~src:0 ~dst:5 ~bits:14;
  Trace.emit_message_delivered a ~round:4 ~src:0 ~dst:5;
  Trace.record b (Trace.Message_sent { round = 3; src = 0; dst = 5; bits = 14 });
  Trace.record b (Trace.Message_delivered { round = 4; src = 0; dst = 5 });
  check bool "same decoded events" true (Trace.events a = Trace.events b)

(* ------------------------------------------------------------------ *)
(* JSONL round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let all_variants =
  [
    Trace.Round_start { round = 1 };
    Trace.Round_end { round = 1; sent = 4; delivered = 3; in_flight = 1; halted = 0 };
    Trace.Message_sent { round = 1; src = 0; dst = 7; bits = 12 };
    Trace.Message_delivered { round = 2; src = 0; dst = 7 };
    Trace.Message_dropped { round = 2; src = 1; dst = 3; reason = Trace.Adversary };
    Trace.Message_dropped
      { round = 2; src = 1; dst = 4; reason = Trace.Crashed_destination };
    Trace.Message_duplicated { round = 3; src = 2; dst = 0; copy_delay = 2 };
    Trace.Message_delayed { round = 3; src = 2; dst = 1; delay = 4 };
    Trace.Node_halted { round = 4; node = 5 };
    Trace.Node_crashed { round = 4; node = 6 };
    Trace.Bandwidth_high_water { round = 5; node = 0; bits = 15 };
    Trace.Cost_charged
      { tag = "level \"0\"\nweird\\tag"; rounds = 9; messages = 40; max_bits = 16 };
    Trace.Span_enter { path = "netdecomp/color=3/steiner" };
    Trace.Span_exit { path = "netdecomp/color=3/steiner" };
  ]

let test_jsonl_round_trip () =
  List.iter
    (fun ev ->
      match Trace.event_of_jsonl (Trace.event_to_jsonl ev) with
      | Ok ev' -> check bool (Trace.event_to_jsonl ev) true (ev = ev')
      | Error e -> Alcotest.fail e)
    all_variants;
  (* whole-sink round trip preserves order *)
  let s = Trace.sink () in
  List.iter (Trace.record s) all_variants;
  match Trace.of_jsonl (Trace.to_jsonl s) with
  | Ok evs -> check bool "sink round trip" true (evs = all_variants)
  | Error e -> Alcotest.fail e

let test_jsonl_rejects_garbage () =
  check bool "non-json" true (Result.is_error (Trace.event_of_jsonl "hello"));
  check bool "unknown kind" true
    (Result.is_error (Trace.event_of_jsonl {|{"ev":"warp","round":1}|}));
  check bool "missing field" true
    (Result.is_error (Trace.event_of_jsonl {|{"ev":"message_sent","round":1}|}))

let test_simulated_trace_parses () =
  let sink = Trace.sink () in
  let adv = Fault.create (Fault.spec ~seed:3 ~drop:0.1 ~crashes:[ (2, 4) ] ()) in
  ignore
    (Baseline.Mpx_distributed.partition ~adversary:adv ~trace:sink (er 6 50)
       ~beta:0.5);
  match Trace.of_jsonl (Trace.to_jsonl sink) with
  | Ok evs -> check int "every event survives" (Trace.length sink) (List.length evs)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let test_metrics_of_trace () =
  let sink = Trace.sink () in
  let adv = Fault.create (Fault.spec ~seed:5 ~drop:0.05 ()) in
  let r =
    Baseline.Mpx_distributed.partition ~adversary:adv ~trace:sink (er 3 80)
      ~beta:0.4
  in
  let stats = r.Baseline.Mpx_distributed.sim_stats in
  let m = Metrics.of_trace sink in
  check int "rounds counter" stats.Sim.rounds_used
    (Metrics.counter_value (Metrics.counter m "rounds"));
  check int "messages_sent counter" stats.Sim.total_messages
    (Metrics.counter_value (Metrics.counter m "messages_sent"));
  check int "messages_dropped counter" stats.Sim.faults.Sim.dropped
    (Metrics.counter_value (Metrics.counter m "messages_dropped"));
  let bits = Metrics.histogram m "bits_per_message" in
  check int "bits histogram count" stats.Sim.total_messages
    (Metrics.hist_count bits);
  check bool "bits histogram max = max_bits_seen" true
    (Metrics.hist_max bits = stats.Sim.max_bits_seen);
  check (Alcotest.float 1e-9) "max_message_bits gauge"
    (float_of_int stats.Sim.max_bits_seen)
    (Metrics.gauge_max (Metrics.gauge m "max_message_bits"));
  let per_round = Metrics.histogram m "messages_per_round" in
  check int "per-round histogram sums to sent" stats.Sim.total_messages
    (Metrics.hist_sum per_round)

let test_metrics_primitives () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check int "counter" 5 (Metrics.counter_value c);
  check bool "counter idempotent registration" true (Metrics.counter m "c" == c);
  let g = Metrics.gauge m "g" in
  Metrics.set g 3.0;
  Metrics.set g 1.0;
  check (Alcotest.float 1e-9) "gauge last" 1.0 (Metrics.gauge_value g);
  check (Alcotest.float 1e-9) "gauge max" 3.0 (Metrics.gauge_max g);
  let h = Metrics.histogram m "h" in
  List.iter (Metrics.observe h) [ 1; 2; 3; 4; 9 ];
  check int "hist count" 5 (Metrics.hist_count h);
  check int "hist sum" 19 (Metrics.hist_sum h);
  check int "hist min" 1 (Metrics.hist_min h);
  check int "hist max" 9 (Metrics.hist_max h);
  (* buckets: 1 -> [1,2), 2..3 -> [2,4), 4 -> [4,8), 9 -> [8,16) *)
  check bool "buckets" true
    (Metrics.hist_buckets h = [ (2, 1); (4, 2); (8, 1); (16, 1) ])

let test_metrics_csv_shape () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter m "a");
  Metrics.observe (Metrics.histogram m "h") 5;
  let lines = String.split_on_char '\n' (String.trim (Metrics.to_csv m)) in
  check Alcotest.string "header" "metric,stat,value" (List.hd lines);
  List.iter
    (fun l ->
      check int ("3 fields: " ^ l) 3 (List.length (String.split_on_char ',' l)))
    lines

(* ------------------------------------------------------------------ *)
(* Cost-level tracing                                                   *)
(* ------------------------------------------------------------------ *)

let test_cost_charges_traced () =
  let sink = Trace.sink () in
  let cost = Congest.Cost.create ~trace:sink () in
  Congest.Cost.charge cost ~rounds:3 ~messages:10 ~max_bits:12 "phase.a";
  Congest.Cost.charge cost ~rounds:2 "phase.b";
  check int "two cost events" 2
    (count (function Trace.Cost_charged _ -> true | _ -> false) sink);
  let m = Metrics.of_trace sink in
  check int "cost_rounds" (Congest.Cost.rounds cost)
    (Metrics.counter_value (Metrics.counter m "cost_rounds"));
  check int "per-tag rounds" 3
    (Metrics.counter_value (Metrics.counter m "cost.phase.a.rounds"))

let test_measure_row_carries_trace () =
  let sink = Trace.sink () in
  let d = Workload.Algorithms.find_decomposer "thm2.3" in
  let row =
    Workload.Measure.decomposition_row ~seed:1 ~trace:sink d
      Workload.Suite.grid ~n:64
  in
  check bool "row valid" true row.Workload.Measure.valid;
  check bool "row carries the sink" true
    (match row.Workload.Measure.trace with Some s -> s == sink | None -> false);
  check bool "trace non-empty" true (Trace.length sink > 0);
  check bool "strong diameter present" true
    (row.Workload.Measure.strong_diameter <> None)


(* Golden trace: the committed event stream of the weak carving on an
   8x8 grid. Any change to delivery order, send order or the node
   program's message schedule shows up here as a byte difference. *)
let golden_path = "../bench_results/trace_weak_carve_grid64.jsonl"

let test_golden_weak_carve_trace () =
  let sink = Trace.sink () in
  let _ = Weakdiam.Distributed.carve ~trace:sink grid8 ~epsilon:0.5 in
  let expected = In_channel.with_open_bin golden_path In_channel.input_all in
  let actual = Trace.to_jsonl sink in
  let lines s = String.split_on_char '\n' s in
  let first_diff =
    let rec go i = function
      | a :: ra, b :: rb -> if String.equal a b then go (i + 1) (ra, rb) else i
      | [], [] -> -1
      | _ -> i
    in
    go 1 (lines expected, lines actual)
  in
  check int "first differing line (-1 = byte-identical)" (-1) first_diff;
  check bool "byte-identical to the committed trace" true
    (String.equal expected actual)

let () =
  Alcotest.run "trace"
    [
      ( "agreement",
        [
          Alcotest.test_case "weak fault-free" `Quick
            test_agreement_weak_fault_free;
          Alcotest.test_case "weak adversarial" `Quick
            test_agreement_weak_adversarial;
          Alcotest.test_case "strong fault-free" `Quick
            test_agreement_strong_fault_free;
          Alcotest.test_case "strong adversarial" `Quick
            test_agreement_strong_adversarial;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "event stream" `Quick test_event_stream_deterministic;
          Alcotest.test_case "golden weak carve grid64" `Quick
            test_golden_weak_carve_trace;
        ] );
      ( "sink",
        [
          Alcotest.test_case "capacity truncation" `Quick test_capacity_truncation;
          Alcotest.test_case "spill streams past capacity" `Quick
            test_spill_streams_past_capacity;
          Alcotest.test_case "spill serializes like memory" `Quick
            test_spill_jsonl_matches_memory;
          Alcotest.test_case "off path allocation-free" `Quick
            test_off_path_allocation_free;
          Alcotest.test_case "hot emitters allocation-free" `Quick
            test_hot_emitters_allocation_free;
          Alcotest.test_case "emitters = record" `Quick test_emitters_equal_record;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_jsonl_rejects_garbage;
          Alcotest.test_case "simulated trace parses" `Quick
            test_simulated_trace_parses;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "of_trace" `Quick test_metrics_of_trace;
          Alcotest.test_case "primitives" `Quick test_metrics_primitives;
          Alcotest.test_case "csv shape" `Quick test_metrics_csv_shape;
        ] );
      ( "integration",
        [
          Alcotest.test_case "cost charges traced" `Quick test_cost_charges_traced;
          Alcotest.test_case "measure row carries trace" `Quick
            test_measure_row_carries_trace;
        ] );
    ]
