(* Tests for the resource side channel (Congest.Resource): the exact-sum
   attribution invariant (per-path self seconds/words plus "(unspanned)"
   reproduce the process totals, fault-free and adversarial, weak and
   strong engines, checked on the per-span table by Table_invariants),
   byte-identical traces with and without a recorder attached, the
   Chrome trace-event export round-trip with balanced B/E stack
   discipline, the peak-heap watermark, and the resource columns of the
   folded/CSV/metrics surfaces. *)

open Dsgraph
module Sim = Congest.Sim
module Trace = Congest.Trace
module Span = Congest.Span
module Metrics = Congest.Metrics
module Fault = Congest.Fault
module Resource = Congest.Resource

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let grid8 = Gen.grid 8 8

let er seed n =
  Gen.ensure_connected (Rng.create seed) (Gen.erdos_renyi (Rng.create seed) n 0.08)

let find_rollup path rolls =
  match
    List.find_opt (fun (r : Resource.rollup) -> r.Resource.r_path = path) rolls
  with
  | Some r -> r
  | None -> Alcotest.fail ("missing resource rollup for " ^ path)

(* ------------------------------------------------------------------ *)
(* Exact-sum invariant                                                  *)
(* ------------------------------------------------------------------ *)

(* One atomic snapshot joined onto the per-span table: its self words
   over every path (unspanned included) must equal the window totals
   exactly. Returns the recorder's own rows. *)
let assert_exact_sums name sink res =
  let rolls, tot = Resource.snapshot res in
  Table_invariants.check_table ~name ~totals:tot sink
    (Span.rollups ~resource:rolls sink);
  check bool (name ^ ": window nonempty") true (tot.Resource.t_seconds > 0.0);
  check bool (name ^ ": something was allocated") true
    (tot.Resource.t_minor_words > 0.0);
  rolls

let attach_fresh sink =
  let res = Resource.create () in
  Resource.attach res sink;
  res

let test_sums_weak_fault_free () =
  let sink = Trace.sink () in
  let res = attach_fresh sink in
  ignore (Weakdiam.Distributed.carve ~trace:sink grid8 ~epsilon:0.5);
  let rolls = assert_exact_sums "weak carve" sink res in
  let root = find_rollup "weakdiam_sim" rolls in
  check bool "root saw wall time" true (root.Resource.r_seconds_incl > 0.0);
  check bool "root saw allocation" true
    (root.Resource.r_minor_words_incl > 0.0);
  check bool "simulate phase charged" true
    (List.exists
       (fun (r : Resource.rollup) -> r.Resource.r_path = "weakdiam_sim/simulate")
       rolls);
  (* construction work before the first enter_span lands unspanned *)
  ignore (find_rollup "(unspanned)" rolls)

let test_sums_weak_adversarial () =
  let adv =
    Fault.create (Fault.spec ~seed:5 ~drop:0.05 ~duplicate:0.02 ~delay:0.03 ())
  in
  let sink = Trace.sink () in
  let res = attach_fresh sink in
  let r =
    Weakdiam.Distributed.carve_reliable ~adversary:adv ~trace:sink
      (Gen.grid 5 5) ~epsilon:0.5
  in
  check bool "adversary actually dropped" true
    (r.Weakdiam.Distributed.r_sim_stats.Sim.faults.Sim.dropped > 0);
  let rolls = assert_exact_sums "weak carve reliable+adversary" sink res in
  ignore (find_rollup "weakdiam_reliable" rolls)

let test_sums_strong_fault_free () =
  let sink = Trace.sink () in
  let res = attach_fresh sink in
  let cost = Congest.Cost.create ~trace:sink () in
  ignore (Strongdecomp.Netdecomp.strong ~cost grid8);
  let rolls = assert_exact_sums "thm2.3" sink res in
  ignore (find_rollup "netdecomp" rolls);
  check bool "color phases charged" true
    (List.exists
       (fun (r : Resource.rollup) -> r.Resource.r_path = "netdecomp/color=0")
       rolls)

let test_sums_strong_adversarial () =
  let adv = Fault.create (Fault.spec ~seed:9 ~drop:0.08 ~delay:0.05 ()) in
  let sink = Trace.sink () in
  let res = attach_fresh sink in
  let r =
    Baseline.Mpx_distributed.partition ~adversary:adv ~trace:sink (er 3 80)
      ~beta:0.4
  in
  check bool "adversary actually dropped" true
    (r.Baseline.Mpx_distributed.sim_stats.Sim.faults.Sim.dropped > 0);
  let rolls = assert_exact_sums "mpx under faults" sink res in
  ignore (find_rollup "mpx_partition" rolls)

let test_sums_stable_across_reads () =
  (* reading is itself work: a second snapshot re-charges the list
     allocation of the first to (unspanned) and the invariant must
     still hold exactly *)
  let sink = Trace.sink () in
  let res = attach_fresh sink in
  ignore (Weakdiam.Distributed.carve ~trace:sink grid8 ~epsilon:0.5);
  ignore (assert_exact_sums "first read" sink res);
  ignore (assert_exact_sums "second read" sink res);
  ignore (Resource.rollups res);
  ignore (assert_exact_sums "after separate reads" sink res)

(* ------------------------------------------------------------------ *)
(* Traces stay byte-identical                                           *)
(* ------------------------------------------------------------------ *)

let test_trace_byte_identical () =
  (* the side channel must never leak into the packed stream: the same
     seeded run with and without a recorder serializes identically *)
  let run ~resourced =
    let sink = Trace.sink () in
    if resourced then ignore (attach_fresh sink);
    ignore (Weakdiam.Distributed.carve ~trace:sink grid8 ~epsilon:0.5);
    Trace.to_jsonl sink
  in
  let bare = run ~resourced:false and profiled = run ~resourced:true in
  check bool "traces byte-identical" true (String.equal bare profiled);
  let strong ~resourced =
    let sink = Trace.sink () in
    if resourced then ignore (attach_fresh sink);
    let cost = Congest.Cost.create ~trace:sink () in
    ignore (Strongdecomp.Netdecomp.strong ~cost (Gen.grid 6 6));
    Trace.to_jsonl sink
  in
  check bool "strong traces byte-identical" true
    (String.equal (strong ~resourced:false) (strong ~resourced:true))

let test_span_seconds_served_by_recorder () =
  (* the per-span table carries resource columns only when a snapshot is
     passed, and then on every row, with the root's wall time in it *)
  let sink = Trace.sink () in
  let res = attach_fresh sink in
  ignore (Weakdiam.Distributed.carve ~trace:sink grid8 ~epsilon:0.5);
  check bool "no snapshot, no resource columns" true
    (List.for_all
       (fun (r : Span.rollup) -> r.Span.resource = None)
       (Span.rollups sink));
  let resource, _ = Resource.snapshot res in
  let rolls = Span.rollups ~resource sink in
  check bool "every row joined" true
    (List.for_all (fun (r : Span.rollup) -> r.Span.resource <> None) rolls);
  check bool "Span rollups see wall time" true
    (List.exists
       (fun (r : Span.rollup) ->
         match r.Span.resource with
         | Some x -> x.Resource.r_seconds_incl > 0.0
         | None -> false)
       rolls);
  check Alcotest.string "the recorder-only unspanned row leads"
    Trace.unspanned (List.hd rolls).Span.path

let test_clear_detaches () =
  let sink = Trace.sink () in
  let res = attach_fresh sink in
  Span.enter (Some sink) "a";
  Span.exit (Some sink);
  let paths () = List.map (fun r -> r.Resource.r_path) (Resource.rollups res) in
  check bool "recorder saw a" true (List.mem "a" (paths ()));
  Trace.clear sink;
  (* spans still work recorder-free after clear *)
  Span.enter (Some sink) "b";
  Span.exit (Some sink);
  check int "stack balanced" 0 (Trace.span_depth sink);
  check bool "clear resets the hooks" false (List.mem "b" (paths ()))

(* ------------------------------------------------------------------ *)
(* Peak-heap watermark                                                  *)
(* ------------------------------------------------------------------ *)

let test_peak_heap_watermark () =
  let res = Resource.create () in
  (* force the major heap past 8 MB and keep it reachable across the
     sample so the watermark must see it *)
  let big = Array.make (1 lsl 20) 0.0 in
  let tot = Resource.totals res in
  check bool "watermark saw the major heap" true
    (Resource.peak_heap_mb tot > 4.0);
  check bool "watermark is words" true (tot.Resource.t_peak_heap_words > 0);
  ignore (Array.length big)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                            *)
(* ------------------------------------------------------------------ *)

let test_chrome_round_trip () =
  let sink = Trace.sink () in
  let res = attach_fresh sink in
  ignore (Weakdiam.Distributed.carve ~trace:sink grid8 ~epsilon:0.5);
  let events = Resource.chrome_events res in
  check bool "timeline nonempty" true (events <> []);
  (* balanced B/E with stack discipline: every E closes the most recent
     open B of the same path, and nothing stays open *)
  let depth =
    List.fold_left
      (fun stack (e : Resource.chrome_event) ->
        match e.Resource.ce_phase with
        | `B -> e.Resource.ce_path :: stack
        | `E -> (
            match stack with
            | top :: rest ->
                check Alcotest.string "E closes innermost B" top
                  e.Resource.ce_path;
                rest
            | [] -> Alcotest.fail "E without open B"))
      [] events
  in
  check int "all spans closed" 0 (List.length depth);
  (* timestamps are monotone microseconds from the recorder origin *)
  ignore
    (List.fold_left
       (fun prev (e : Resource.chrome_event) ->
         check bool "monotone ts" true (e.Resource.ce_ts >= prev);
         e.Resource.ce_ts)
       0.0 events);
  (* the JSON serialization parses back to the same timeline *)
  match Resource.chrome_of_json (Resource.chrome_json res) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
      check int "same event count" (List.length events) (List.length parsed);
      check bool "round-trips exactly" true (parsed = events)

let test_chrome_json_shape () =
  let sink = Trace.sink () in
  let res = attach_fresh sink in
  Span.enter (Some sink) "outer";
  Span.enter (Some sink) "inner";
  Span.exit (Some sink);
  Span.exit (Some sink);
  let json = Resource.chrome_json res in
  let has sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  check bool "catapult envelope" true (has "\"traceEvents\":[");
  check bool "display unit" true (has "\"displayTimeUnit\":\"ms\"");
  check bool "begin phase" true (has "\"ph\":\"B\"");
  check bool "end phase" true (has "\"ph\":\"E\"");
  (* names are the last segment; args carry the full path *)
  check bool "short name" true (has "\"name\":\"inner\"");
  check bool "full path in args" true (has "outer/inner")

let test_chrome_rejects_garbage () =
  check bool "not json" true
    (Result.is_error (Resource.chrome_of_json "\"ph\":\"B\" but no ts"));
  check bool "empty input round-trips" true
    (Resource.chrome_of_json "{\"traceEvents\":[\n]}" = Ok [])

(* ------------------------------------------------------------------ *)
(* Folded stacks, CSV, metrics, weights                                 *)
(* ------------------------------------------------------------------ *)

let test_folded_parses () =
  let sink = Trace.sink () in
  let res = attach_fresh sink in
  ignore (Weakdiam.Distributed.carve ~trace:sink grid8 ~epsilon:0.5);
  let resource, _ = Resource.snapshot res in
  let rolls = Span.rollups ~resource sink in
  List.iter
    (fun weight ->
      match Span.of_folded (Span.to_folded ~weight rolls) with
      | Error e -> Alcotest.fail e
      | Ok pairs ->
          check bool "nonempty folded stacks" true (pairs <> []);
          List.iter
            (fun (path, v) ->
              check bool "positive weights only" true (v > 0);
              check bool "known path" true (String.length path > 0))
            pairs)
    [ `Seconds; `Minor_words ]

let test_csv_shape () =
  let sink = Trace.sink () in
  let res = attach_fresh sink in
  Span.enter (Some sink) "a";
  Span.exit (Some sink);
  let resource, _ = Resource.snapshot res in
  let csv = Span.csv (Span.rollups ~resource sink) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check bool "header + unspanned + a" true (List.length lines >= 3);
  check Alcotest.string "header row"
    "path,depth,entries,rounds,rounds_incl,messages,messages_incl,bits,bits_incl,max_message_bits,seconds,seconds_incl,minor_words,minor_words_incl,promoted_words,promoted_words_incl,major_words,major_words_incl,major_collections,major_collections_incl"
    (List.hd lines);
  check bool "a row present, a root" true
    (List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "a,1,") lines);
  check bool "unspanned row at depth 0" true
    (List.exists
       (fun l ->
         String.length l >= 14 && String.sub l 0 14 = "(unspanned),0,")
       lines)

let test_metrics_export () =
  let sink = Trace.sink () in
  let res = attach_fresh sink in
  ignore (Weakdiam.Distributed.carve ~trace:sink grid8 ~epsilon:0.5);
  let _, tot = Resource.snapshot res in
  let m = Resource.metrics tot in
  check bool "seconds gauge" true
    (Metrics.gauge_value (Metrics.gauge m "res.seconds") > 0.0);
  check bool "minor words gauge" true
    (Metrics.gauge_value (Metrics.gauge m "res.minor_words")
     >= tot.Resource.t_minor_words);
  check int "major collections counter"
    tot.Resource.t_major_collections
    (Metrics.counter_value (Metrics.counter m "res.major_collections"))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "resource"
    [
      ( "exact-sum",
        [
          Alcotest.test_case "weak fault-free" `Quick test_sums_weak_fault_free;
          Alcotest.test_case "weak adversarial" `Quick
            test_sums_weak_adversarial;
          Alcotest.test_case "strong fault-free" `Quick
            test_sums_strong_fault_free;
          Alcotest.test_case "strong adversarial" `Quick
            test_sums_strong_adversarial;
          Alcotest.test_case "stable across reads" `Quick
            test_sums_stable_across_reads;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "traces byte-identical" `Quick
            test_trace_byte_identical;
          Alcotest.test_case "span seconds via recorder" `Quick
            test_span_seconds_served_by_recorder;
          Alcotest.test_case "clear detaches" `Quick test_clear_detaches;
        ] );
      ( "watermark",
        [ Alcotest.test_case "peak heap" `Quick test_peak_heap_watermark ] );
      ( "chrome",
        [
          Alcotest.test_case "round trip" `Quick test_chrome_round_trip;
          Alcotest.test_case "json shape" `Quick test_chrome_json_shape;
          Alcotest.test_case "rejects garbage" `Quick
            test_chrome_rejects_garbage;
        ] );
      ( "surfaces",
        [
          Alcotest.test_case "folded parses" `Quick test_folded_parses;
          Alcotest.test_case "csv shape" `Quick test_csv_shape;
          Alcotest.test_case "metrics export" `Quick test_metrics_export;
        ] );
    ]
