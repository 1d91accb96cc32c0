open Dsgraph
module Sim = Congest.Sim
module Bits = Congest.Bits
module Fault = Congest.Fault
module Reliable = Congest.Reliable

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* A small instrumented program: every node broadcasts a tagged message
   for [talk] rounds, then stops; it logs each round's inbox. The log is
   the observable behavior we compare across transports.               *)
(* ------------------------------------------------------------------ *)

type chat_state = { r : int; log : (int * (int * int) list) list }

let chatter ~talk g =
  {
    Sim.init = (fun ~node:_ ~neighbors:_ -> { r = 0; log = [] });
    round =
      (fun ~node ~state ~inbox ~out ->
        let r = state.r + 1 in
        if r <= talk then
          Graph.iter_neighbors g node (fun nb -> Sim.send out nb ((node * 1000) + r))
        else Sim.halt out;
        { r; log = (r, Sim.Inbox.to_list inbox) :: state.log });
  }

let chat_bits _ = 8

(* pad a log to [upto] rounds with empty inboxes (an unwrapped run stops
   calling [round] once quiescent; the wrapped one runs a fixed count) *)
let normalize_log ~upto st =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (r, inbox) -> Hashtbl.replace tbl r inbox) st.log;
  List.init upto (fun i ->
      match Hashtbl.find_opt tbl (i + 1) with Some l -> l | None -> [])

(* ------------------------------------------------------------------ *)
(* Fault adversary unit tests                                           *)
(* ------------------------------------------------------------------ *)

let test_fault_deterministic () =
  let run () =
    let adv = Fault.create (Fault.spec ~seed:42 ~drop:0.3 ~duplicate:0.1 ()) in
    List.init 200 (fun i ->
        Fault.fate adv ~round:(1 + (i / 10)) ~src:(i mod 7) ~dst:((i + 1) mod 7))
  in
  Alcotest.(check bool) "same fates" true (run () = run ())

let test_fault_drop_all () =
  let adv = Fault.create (Fault.spec ~seed:1 ~drop:1.0 ()) in
  for i = 0 to 50 do
    match Fault.fate adv ~round:1 ~src:0 ~dst:i with
    | Fault.Drop -> ()
    | _ -> Alcotest.fail "drop rate 1.0 must drop everything"
  done;
  check int "counted" 51 (Fault.dropped adv)

let test_fault_burst () =
  let burst =
    { Fault.from_round = 3; until_round = 5; on_edges = Some [ (0, 1) ] }
  in
  let adv = Fault.create (Fault.spec ~bursts:[ burst ] ()) in
  let fate ~round ~src ~dst = Fault.fate adv ~round ~src ~dst in
  Alcotest.(check bool) "before window" true (fate ~round:2 ~src:0 ~dst:1 = Fault.Deliver);
  Alcotest.(check bool) "in window" true (fate ~round:3 ~src:0 ~dst:1 = Fault.Drop);
  Alcotest.(check bool) "reverse orientation" true (fate ~round:5 ~src:1 ~dst:0 = Fault.Drop);
  Alcotest.(check bool) "other edge" true (fate ~round:4 ~src:1 ~dst:2 = Fault.Deliver);
  Alcotest.(check bool) "after window" true (fate ~round:6 ~src:0 ~dst:1 = Fault.Deliver)

let test_fault_validation () =
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Fault.create: drop rate 1.5 not in [0,1]") (fun () ->
      ignore (Fault.create (Fault.spec ~drop:1.5 ())));
  Alcotest.check_raises "NaN rate"
    (Invalid_argument "Fault.create: delay rate nan not in [0,1]") (fun () ->
      ignore (Fault.create (Fault.spec ~delay:Float.nan ())));
  Alcotest.check_raises "bad crash round"
    (Invalid_argument "Fault.create: crash round must be >= 1") (fun () ->
      ignore (Fault.create (Fault.spec ~crashes:[ (0, 0) ] ())))

(* ------------------------------------------------------------------ *)
(* Sim + adversary                                                      *)
(* ------------------------------------------------------------------ *)

let test_sim_crash_freezes_node () =
  let g = Gen.path 4 in
  let adv = Fault.create (Fault.spec ~crashes:[ (3, 2) ] ()) in
  let states, stats =
    Sim.simulate
      ~config:Sim.Config.(default |> with_adversary adv)
      ~bits:chat_bits g (chatter ~talk:4 g)
  in
  Alcotest.(check (list int)) "crashed listed" [ 3 ] stats.faults.crashed;
  (* node 3 executed only round 1 before crashing at round 2 *)
  check int "frozen" 1 states.(3).r;
  check bool "others finished" true (states.(0).r > 4);
  (* node 2 stops hearing from 3 after the crash *)
  let heard_from_3 =
    List.exists
      (fun (r, inbox) -> r > 2 && List.mem_assoc 3 inbox)
      states.(2).log
  in
  check bool "no posthumous messages" false heard_from_3

let test_sim_drop_loses_messages () =
  let g = Gen.cycle 6 in
  let adv = Fault.create (Fault.spec ~seed:7 ~drop:0.5 ()) in
  let _, stats =
    Sim.simulate
      ~config:Sim.Config.(default |> with_adversary adv)
      ~bits:chat_bits g (chatter ~talk:3 g)
  in
  check bool "some dropped" true (stats.faults.dropped > 0);
  check bool "replayable" true
    (let adv2 = Fault.create (Fault.spec ~seed:7 ~drop:0.5 ()) in
     let _, stats2 =
       Sim.simulate
         ~config:Sim.Config.(default |> with_adversary adv2)
         ~bits:chat_bits g (chatter ~talk:3 g)
     in
     stats2.faults.dropped = stats.faults.dropped)

let test_sim_duplicate_and_delay () =
  let g = Gen.path 2 in
  let adv =
    Fault.create (Fault.spec ~seed:5 ~duplicate:0.5 ~delay:0.4 ~delay_window:3 ())
  in
  let states, stats =
    Sim.simulate
      ~config:Sim.Config.(default |> with_adversary adv)
      ~bits:chat_bits g (chatter ~talk:6 g)
  in
  check bool "duplicated" true (stats.faults.duplicated > 0);
  check bool "delayed" true (stats.faults.delayed > 0);
  (* duplicated messages show up as extra inbox entries: total receptions
     across both nodes = total sent + injected copies (nothing dropped) *)
  let total_received =
    Array.fold_left
      (fun a st ->
        a + List.fold_left (fun a (_, inbox) -> a + List.length inbox) 0 st.log)
      0 states
  in
  check int "receptions = sent + duplicates" total_received
    (stats.total_messages + stats.faults.duplicated);
  check int "nothing dropped" 0 stats.faults.dropped

let test_sim_on_incomplete () =
  let g = Gen.path 2 in
  let never_halt =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> ());
      round = (fun ~node:_ ~state:_ ~inbox:_ ~out:_ -> ());
    }
  in
  (match
     Sim.simulate
       ~config:Sim.Config.(default |> with_max_rounds 3 |> with_on_incomplete `Raise)
       ~bits:(fun _ -> 1) g never_halt
   with
  | exception Sim.Incomplete { max_rounds; running } ->
      check int "max_rounds" 3 max_rounds;
      check int "running" 2 running
  | _ -> Alcotest.fail "expected Incomplete");
  let _, stats =
    Sim.simulate
      ~config:Sim.Config.(default |> with_max_rounds 3 |> with_on_incomplete `Ignore)
      ~bits:(fun _ -> 1) g never_halt
  in
  check bool "not halted" false stats.all_halted

(* ------------------------------------------------------------------ *)
(* Reliable transport                                                   *)
(* ------------------------------------------------------------------ *)

let inner_rounds_for ~talk = (2 * talk) + 6

let run_reliable ?adversary ~talk g =
  let cfg = Reliable.config ~inner_rounds:(inner_rounds_for ~talk) () in
  Reliable.simulate
    ~sim:{ Sim.Config.default with adversary }
    cfg ~bits:chat_bits g (chatter ~talk g)

let test_reliable_zero_fault_transparency () =
  let g = Gen.erdos_renyi (Rng.create 3) 20 0.2 in
  let talk = 5 in
  let plain, _ = Sim.simulate ~bits:chat_bits g (chatter ~talk g) in
  let r = run_reliable ~talk g in
  let upto = inner_rounds_for ~talk in
  Array.iteri
    (fun v st ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d log identical" v)
        true
        (normalize_log ~upto st = normalize_log ~upto r.Reliable.states.(v)))
    plain;
  check int "no retransmissions at drop 0" 0 r.Reliable.transport.retransmissions;
  Alcotest.(check (list int)) "no dead" [] r.Reliable.transport.detected_dead;
  check bool "all finished" true (Array.for_all (fun f -> f) r.Reliable.finished)

let test_reliable_exactly_once_under_drop () =
  let g = Gen.cycle 8 in
  let talk = 5 in
  let plain, _ = Sim.simulate ~bits:chat_bits g (chatter ~talk g) in
  List.iter
    (fun drop ->
      let adv = Fault.create (Fault.spec ~seed:11 ~drop ()) in
      let r = run_reliable ~adversary:adv ~talk g in
      let upto = inner_rounds_for ~talk in
      check bool
        (Printf.sprintf "drop %.2f: faults actually injected" drop)
        true
        (r.Reliable.sim_stats.faults.dropped > 0);
      Array.iteri
        (fun v st ->
          Alcotest.(check bool)
            (Printf.sprintf "drop %.2f node %d" drop v)
            true
            (normalize_log ~upto st
            = normalize_log ~upto r.Reliable.states.(v)))
        plain)
    [ 0.05; 0.1; 0.25 ]

let test_reliable_under_duplication_and_reordering () =
  let g = Gen.path 6 in
  let talk = 4 in
  let plain, _ = Sim.simulate ~bits:chat_bits g (chatter ~talk g) in
  let adv =
    Fault.create
      (Fault.spec ~seed:2 ~drop:0.1 ~duplicate:0.2 ~delay:0.2 ~delay_window:4 ())
  in
  let r = run_reliable ~adversary:adv ~talk g in
  let upto = inner_rounds_for ~talk in
  Array.iteri
    (fun v st ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d" v)
        true
        (normalize_log ~upto st = normalize_log ~upto r.Reliable.states.(v)))
    plain

let test_reliable_burst_blackout () =
  let g = Gen.path 4 in
  let talk = 4 in
  let plain, _ = Sim.simulate ~bits:chat_bits g (chatter ~talk g) in
  (* total blackout for 10 rounds: nothing gets through, then recovery *)
  let adv =
    Fault.create
      (Fault.spec
         ~bursts:[ { Fault.from_round = 2; until_round = 11; on_edges = None } ]
         ())
  in
  let r = run_reliable ~adversary:adv ~talk g in
  let upto = inner_rounds_for ~talk in
  Array.iteri
    (fun v st ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d" v)
        true
        (normalize_log ~upto st = normalize_log ~upto r.Reliable.states.(v)))
    plain;
  check bool "retransmitted through the blackout" true
    (r.Reliable.transport.retransmissions > 0)

let test_reliable_crash_detection () =
  let g = Gen.path 4 in
  let talk = 6 in
  let adv = Fault.create (Fault.spec ~crashes:[ (0, 3) ] ()) in
  let cfg =
    Reliable.config
      ~inner_rounds:(inner_rounds_for ~talk)
      ~liveness_timeout:20 ()
  in
  let r =
    Reliable.simulate
      ~sim:Sim.Config.(default |> with_adversary adv)
      cfg ~bits:chat_bits g (chatter ~talk g)
  in
  Alcotest.(check (list int))
    "survivor detected the crash" [ 0 ] r.Reliable.dead_view.(1);
  Alcotest.(check (list int)) "union" [ 0 ] r.Reliable.transport.detected_dead;
  (* survivors still complete all inner rounds *)
  check bool "1 finished" true r.Reliable.finished.(1);
  check bool "2 finished" true r.Reliable.finished.(2);
  check bool "3 finished" true r.Reliable.finished.(3)

let test_reliable_header_within_budget () =
  let g = Gen.cycle 8 in
  let talk = 4 in
  let n = Graph.n g in
  let inner_rounds = inner_rounds_for ~talk in
  let adv = Fault.create (Fault.spec ~seed:9 ~drop:0.2 ~duplicate:0.1 ()) in
  let cfg = Reliable.config ~inner_rounds () in
  let r =
    Reliable.simulate
      ~sim:Sim.Config.(default |> with_adversary adv)
      cfg ~bits:chat_bits g (chatter ~talk g)
  in
  let budget = Bits.bandwidth ~n + Reliable.header_bits ~inner_rounds in
  check bool "frames within widened budget" true
    (r.Reliable.sim_stats.max_bits_seen <= budget);
  (* and the header is genuinely O(log inner_rounds) small *)
  check bool "header small" true
    (Reliable.header_bits ~inner_rounds <= (2 * Bits.int_bits inner_rounds) + 2)

(* ------------------------------------------------------------------ *)
(* End-to-end: the distributed carvings under faults                    *)
(* ------------------------------------------------------------------ *)

let test_ls_zero_fault_transparency () =
  let g = Gen.erdos_renyi (Rng.create 17) 48 0.1 in
  let plain, _ =
    Baseline.Ls_distributed.attempt (Rng.create 5) g ~epsilon:0.5
  in
  let r =
    Baseline.Ls_distributed.attempt_reliable (Rng.create 5) g ~epsilon:0.5
  in
  Alcotest.(check (array int))
    "identical labels" plain r.Baseline.Ls_distributed.cluster_of;
  check int "no retransmissions" 0
    r.Baseline.Ls_distributed.transport.Reliable.retransmissions

let test_ls_exactly_once_under_drop () =
  let g = Gen.grid 6 6 in
  let plain, _ =
    Baseline.Ls_distributed.attempt (Rng.create 5) g ~epsilon:0.5
  in
  List.iter
    (fun drop ->
      let adv = Fault.create (Fault.spec ~seed:3 ~drop ()) in
      let r =
        Baseline.Ls_distributed.attempt_reliable ~adversary:adv (Rng.create 5)
          g ~epsilon:0.5
      in
      check bool
        (Printf.sprintf "drop %.2f injected faults" drop)
        true
        (r.Baseline.Ls_distributed.sim_stats.Sim.faults.dropped > 0);
      Alcotest.(check (array int))
        (Printf.sprintf "drop %.2f labels identical" drop)
        plain r.Baseline.Ls_distributed.cluster_of)
    [ 0.05; 0.1 ]

let test_weakdiam_zero_fault_transparency () =
  let g = Gen.erdos_renyi (Rng.create 23) 40 0.12 in
  let base = Weakdiam.Distributed.carve g ~epsilon:0.5 in
  let labels v =
    Cluster.Clustering.cluster_of base.Weakdiam.Distributed.carving.clustering v
  in
  let r = Weakdiam.Distributed.carve_reliable g ~epsilon:0.5 in
  let sim =
    Cluster.Clustering.make g ~cluster_of:r.Weakdiam.Distributed.cluster_of
  in
  for v = 0 to Graph.n g - 1 do
    check int
      (Printf.sprintf "node %d label" v)
      (labels v)
      (Cluster.Clustering.cluster_of sim v)
  done;
  check int "no retransmissions" 0
    r.Weakdiam.Distributed.transport.Reliable.retransmissions

let test_weakdiam_under_drop () =
  let g = Gen.grid 5 5 in
  let base = Weakdiam.Distributed.carve g ~epsilon:0.5 in
  let adv = Fault.create (Fault.spec ~seed:13 ~drop:0.1 ()) in
  let r = Weakdiam.Distributed.carve_reliable ~adversary:adv g ~epsilon:0.5 in
  check bool "faults injected" true
    (r.Weakdiam.Distributed.r_sim_stats.Sim.faults.dropped > 0);
  (* exactly-once delivery: identical result despite the losses *)
  let base_labels =
    Array.init (Graph.n g) (fun v ->
        Cluster.Clustering.cluster_of
          base.Weakdiam.Distributed.carving.clustering v)
  in
  let sim =
    Cluster.Clustering.make g ~cluster_of:r.Weakdiam.Distributed.cluster_of
  in
  let sim_labels =
    Array.init (Graph.n g) (fun v -> Cluster.Clustering.cluster_of sim v)
  in
  Alcotest.(check (array int)) "labels identical" base_labels sim_labels

let test_ls_crash_survivors_valid () =
  let g = Gen.erdos_renyi (Rng.create 31) 60 0.08 in
  let adv =
    Fault.create (Fault.spec ~seed:4 ~drop:0.05 ~crashes:[ (7, 3); (22, 9) ] ())
  in
  let r =
    Baseline.Ls_distributed.attempt_reliable ~adversary:adv (Rng.create 9) g
      ~epsilon:0.5
  in
  Alcotest.(check (list int))
    "crashed recorded" [ 7; 22 ] r.Baseline.Ls_distributed.crashed;
  (* survivors' output is a valid carving of the surviving subgraph *)
  let survivors =
    List.filter (fun v -> v <> 7 && v <> 22) (List.init (Graph.n g) Fun.id)
  in
  let sub, back = Subgraph.induce g survivors in
  let sub_labels =
    Array.init (Graph.n sub) (fun i ->
        let l = r.Baseline.Ls_distributed.cluster_of.(back.(i)) in
        if l < 0 then -1 else l)
  in
  let clustering = Cluster.Clustering.make sub ~cluster_of:sub_labels in
  check bool "non-adjacent on survivors" true
    (Cluster.Clustering.non_adjacent clustering)

let test_harness_row () =
  let row =
    Workload.Faults.run
      {
        Workload.Faults.algorithm = Workload.Faults.Ls;
        family = "path";
        n = 64;
        epsilon = 0.5;
        drop = 0.05;
        crashes = 2;
        seed = 1;
      }
  in
  check bool "valid on survivors" true row.Workload.Faults.valid;
  check int "two crashes" 2 (List.length row.Workload.Faults.crashed_nodes);
  check bool "overhead recorded" true (row.Workload.Faults.round_overhead > 0.0);
  check bool "csv has data line" true
    (String.split_on_char '\n' (Workload.Faults.csv [ row ]) |> List.length > 2)

let test_harness_weakdiam_recovery_path () =
  (* crashes may corrupt the weak carving; the harness must always end
     with a valid output on the survivor subgraph (recovering if needed) *)
  let row =
    Workload.Faults.run
      {
        Workload.Faults.algorithm = Workload.Faults.Weakdiam;
        family = "grid";
        n = 36;
        epsilon = 0.5;
        drop = 0.05;
        crashes = 2;
        seed = 3;
      }
  in
  check bool "valid (possibly after recovery)" true row.Workload.Faults.valid;
  check bool "recovery coherent" true
    (row.Workload.Faults.valid_degraded || row.Workload.Faults.recovery_rounds > 0)

let test_harness_zero_fault_row () =
  let row =
    Workload.Faults.run
      {
        Workload.Faults.algorithm = Workload.Faults.Weakdiam;
        family = "grid";
        n = 25;
        epsilon = 0.5;
        drop = 0.0;
        crashes = 0;
        seed = 1;
      }
  in
  check bool "valid" true row.Workload.Faults.valid;
  check bool "degraded = final at zero faults" true
    row.Workload.Faults.valid_degraded;
  check int "nothing dropped" 0 row.Workload.Faults.dropped;
  check int "no recovery" 0 row.Workload.Faults.recovery_rounds

(* [Fault.fate] compares one [Rng.bits53] draw per message against
   thresholds hoisted into [Fault.create]. [float_fate] is the float form
   it replaced, one [Rng.float] draw per message: both must give the same
   fate stream, for rates of 0, 1,
   subnormals, the smallest normal, 1 - ulp and random values. *)
let float_fate (sp : Fault.spec) rng =
  let total = sp.drop +. sp.duplicate +. sp.delay in
  if total <= 0.0 then Fault.Deliver
  else
    let u = Rng.float rng 1.0 in
    if u < sp.drop then Fault.Drop
    else if u < sp.drop +. sp.duplicate then
      Fault.Duplicate
        (if sp.delay_window > 0 then Rng.int rng (sp.delay_window + 1) else 0)
    else if u < total && sp.delay_window > 0 then
      Fault.Delay (1 + Rng.int rng sp.delay_window)
    else Fault.Deliver

let rate_gen =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [
            0.0;
            1.0;
            Int64.float_of_bits 1L (* smallest subnormal *);
            Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL (* largest subnormal *);
            Float.min_float;
            Float.pred 1.0;
            0.5;
          ];
        float_range 0.0 1.0;
      ])

let prop_fate_matches_float_form =
  QCheck2.Test.make ~count:300
    ~name:"fault fates equal the float-draw form, stream for stream"
    ~print:(fun (seed, (drop, duplicate, delay), window) ->
      Printf.sprintf "seed=%d drop=%h dup=%h delay=%h window=%d" seed drop
        duplicate delay window)
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (triple rate_gen rate_gen rate_gen)
        (int_range 0 3))
    (fun (seed, (drop, duplicate, delay), delay_window) ->
      let sp = Fault.spec ~seed ~drop ~duplicate ~delay ~delay_window () in
      let adv = Fault.create sp and rng = Rng.create seed in
      let fates =
        List.init 400 (fun i ->
            let a = Fault.fate adv ~round:(1 + i) ~src:0 ~dst:1 in
            (a, float_fate sp rng))
      in
      let count p = List.length (List.filter (fun (_, b) -> p b) fates) in
      List.for_all (fun (a, b) -> a = b) fates
      && Fault.dropped adv = count (fun f -> f = Fault.Drop)
      && Fault.duplicated adv
         = count (function Fault.Duplicate _ -> true | _ -> false)
      && Fault.delayed adv = count (function Fault.Delay _ -> true | _ -> false))

(* ------------------------------------------------------------------ *)
(* qcheck: exactly-once + in-order delivery under arbitrary adversaries *)
(* ------------------------------------------------------------------ *)

let prop_reliable_faithful =
  QCheck2.Test.make ~count:40
    ~name:"reliable transport is transparent under any seeded adversary"
    QCheck2.Gen.(
      quad (int_range 0 10_000) (int_range 4 14) (float_range 0.0 0.3)
        (pair (float_range 0.0 0.2) (float_range 0.0 0.2)))
    (fun (seed, n, drop, (duplicate, delay)) ->
      let g = Gen.erdos_renyi (Rng.create (seed + 1)) n 0.3 in
      let talk = 4 in
      let plain, _ = Sim.simulate ~bits:chat_bits g (chatter ~talk g) in
      let adv =
        Fault.create
          (Fault.spec ~seed ~drop ~duplicate ~delay ~delay_window:3 ())
      in
      let r = run_reliable ~adversary:adv ~talk g in
      let upto = inner_rounds_for ~talk in
      Array.for_all (fun f -> f) r.Reliable.finished
      && Array.for_all2
           (fun a b -> normalize_log ~upto a = normalize_log ~upto b)
           plain r.Reliable.states)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [
      ( "adversary",
        [
          Alcotest.test_case "deterministic" `Quick test_fault_deterministic;
          Alcotest.test_case "drop all" `Quick test_fault_drop_all;
          Alcotest.test_case "burst schedule" `Quick test_fault_burst;
          Alcotest.test_case "validation" `Quick test_fault_validation;
          QCheck_alcotest.to_alcotest prop_fate_matches_float_form;
        ] );
      ( "sim",
        [
          Alcotest.test_case "crash freezes node" `Quick
            test_sim_crash_freezes_node;
          Alcotest.test_case "drop loses messages" `Quick
            test_sim_drop_loses_messages;
          Alcotest.test_case "duplicate and delay" `Quick
            test_sim_duplicate_and_delay;
          Alcotest.test_case "on_incomplete" `Quick test_sim_on_incomplete;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "zero-fault transparency" `Quick
            test_reliable_zero_fault_transparency;
          Alcotest.test_case "exactly-once under drops" `Quick
            test_reliable_exactly_once_under_drop;
          Alcotest.test_case "duplication + reordering" `Quick
            test_reliable_under_duplication_and_reordering;
          Alcotest.test_case "burst blackout" `Quick test_reliable_burst_blackout;
          Alcotest.test_case "crash detection" `Quick
            test_reliable_crash_detection;
          Alcotest.test_case "header within budget" `Quick
            test_reliable_header_within_budget;
          QCheck_alcotest.to_alcotest prop_reliable_faithful;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "ls zero-fault transparency" `Quick
            test_ls_zero_fault_transparency;
          Alcotest.test_case "ls exactly-once under drops" `Quick
            test_ls_exactly_once_under_drop;
          Alcotest.test_case "weakdiam zero-fault transparency" `Quick
            test_weakdiam_zero_fault_transparency;
          Alcotest.test_case "weakdiam under drop" `Quick
            test_weakdiam_under_drop;
          Alcotest.test_case "ls crash survivors valid" `Quick
            test_ls_crash_survivors_valid;
        ] );
      ( "harness",
        [
          Alcotest.test_case "ls row" `Quick test_harness_row;
          Alcotest.test_case "weakdiam recovery path" `Quick
            test_harness_weakdiam_recovery_path;
          Alcotest.test_case "zero-fault row" `Quick test_harness_zero_fault_row;
        ] );
    ]
