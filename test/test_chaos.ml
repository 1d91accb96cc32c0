(* Tests for the chaos layer: the churn (crash + timed revive)
   adversary, the adaptive-backoff transport knobs, and the
   [Workload.Chaos] sweep harness
   (seeded determinism, zero invariant violations on the default
   schedule mix). *)

open Dsgraph
module Sim = Congest.Sim
module Fault = Congest.Fault
module Reliable = Congest.Reliable
module Chaos = Workload.Chaos

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "expected Invalid_argument: %s" what

(* ------------------------------------------------------------------ *)
(* Churn adversary                                                     *)
(* ------------------------------------------------------------------ *)

let test_churn_intervals () =
  let adv =
    Fault.create (Fault.spec ~crashes:[ (2, 3) ] ~revives:[ (2, 6) ] ())
  in
  check bool "up before crash" false (Fault.is_crashed adv ~round:2 2);
  check bool "down at crash round" true (Fault.is_crashed adv ~round:3 2);
  check bool "down mid-interval" true (Fault.is_crashed adv ~round:5 2);
  check bool "up at revive round" false (Fault.is_crashed adv ~round:6 2);
  check bool "up after" false (Fault.is_crashed adv ~round:50 2);
  Alcotest.(check (list int)) "down set mid" [ 2 ] (Fault.down_nodes adv ~round:4);
  Alcotest.(check (list int)) "down set after" [] (Fault.down_nodes adv ~round:6);
  (* first-crash semantics survive the revival *)
  Alcotest.(check (list int)) "crashed_nodes still lists it" [ 2 ]
    (Fault.crashed_nodes adv ~upto_round:10)

let test_churn_recrash () =
  let adv =
    Fault.create
      (Fault.spec ~crashes:[ (2, 3); (2, 9) ] ~revives:[ (2, 6) ] ())
  in
  check bool "first down interval" true (Fault.is_crashed adv ~round:4 2);
  check bool "revived window" false (Fault.is_crashed adv ~round:7 2);
  check bool "second crash is permanent" true (Fault.is_crashed adv ~round:11 2)

let test_churn_validation () =
  expect_invalid "revive without a crash" (fun () ->
      Fault.create (Fault.spec ~revives:[ (1, 5) ] ()));
  expect_invalid "revive before the crash" (fun () ->
      Fault.create (Fault.spec ~crashes:[ (1, 5) ] ~revives:[ (1, 4) ] ()));
  expect_invalid "revive at the crash round" (fun () ->
      Fault.create (Fault.spec ~crashes:[ (1, 5) ] ~revives:[ (1, 5) ] ()));
  expect_invalid "re-crash before the pending revive" (fun () ->
      Fault.create
        (Fault.spec ~crashes:[ (1, 3); (1, 4) ] ~revives:[ (1, 6) ] ()));
  expect_invalid "more revives than crashes" (fun () ->
      Fault.create
        (Fault.spec ~crashes:[ (1, 3) ] ~revives:[ (1, 4); (1, 8) ] ()))

(* ------------------------------------------------------------------ *)
(* Adaptive backoff transport                                          *)
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

let normalize_log ~upto st =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (r, inbox) -> Hashtbl.replace tbl r inbox) st.log;
  List.init upto (fun i ->
      match Hashtbl.find_opt tbl (i + 1) with Some l -> l | None -> [])

let test_backoff_config_validation () =
  expect_invalid "backoff below 1" (fun () ->
      Reliable.config ~inner_rounds:4 ~backoff:0.5 ());
  expect_invalid "max_rto below rto" (fun () ->
      Reliable.config ~inner_rounds:4 ~rto:4 ~max_rto:2 ());
  expect_invalid "negative jitter" (fun () ->
      Reliable.config ~inner_rounds:4 ~jitter:(-1) ());
  expect_invalid "negative max_retries" (fun () ->
      Reliable.config ~inner_rounds:4 ~max_retries:(-1) ())

(* exactly-once delivery survives with every backoff knob switched on *)
let test_backoff_transparency_under_drops () =
  let g = Gen.cycle 8 in
  let talk = 4 in
  let inner = talk + 2 in
  let plain, _ = Sim.simulate ~bits:chat_bits g (chatter ~talk g) in
  let cfg =
    Reliable.config ~inner_rounds:inner ~rto:2 ~backoff:2.0 ~max_rto:12
      ~jitter:3 ~jitter_seed:11 ~max_retries:40 ()
  in
  let adv = Fault.create (Fault.spec ~seed:5 ~drop:0.25 ()) in
  let r =
    Reliable.simulate
      ~sim:Sim.Config.(default |> with_adversary adv)
      cfg ~bits:chat_bits g (chatter ~talk g)
  in
  check bool "all finished" true (Array.for_all Fun.id r.Reliable.finished);
  check bool "inner behavior identical" true
    (Array.for_all2
       (fun a b -> normalize_log ~upto:inner a = normalize_log ~upto:inner b)
       plain r.Reliable.states);
  check bool "drops forced retransmissions" true
    (r.Reliable.transport.Reliable.retransmissions > 0)

(* with the silence timeout out of reach, only capped retries can
   condemn the link — detection must still happen, and early *)
let test_max_retries_detects_crash () =
  let g = Gen.path 4 in
  let talk = 3 in
  let inner = talk + 2 in
  let cfg =
    Reliable.config ~inner_rounds:inner ~rto:1 ~max_retries:3
      ~liveness_timeout:2000 ()
  in
  let adv = Fault.create (Fault.spec ~crashes:[ (3, 2) ] ()) in
  let r =
    Reliable.simulate
      ~sim:Sim.Config.(default |> with_adversary adv)
      cfg ~bits:chat_bits g (chatter ~talk g)
  in
  Alcotest.(check (list int)) "crash detected" [ 3 ]
    r.Reliable.transport.Reliable.detected_dead;
  check bool "detected by retries, not by the timeout" true
    (r.Reliable.sim_stats.Sim.rounds_used < 2000);
  check bool "survivors finished" true
    (r.Reliable.finished.(0) && r.Reliable.finished.(1) && r.Reliable.finished.(2))

(* ------------------------------------------------------------------ *)
(* Chaos sweeps                                                        *)
(* ------------------------------------------------------------------ *)

let test_chaos_deterministic () =
  let sp =
    Chaos.spec (Chaos.Decomposer "greedy") ~family:"grid" ~n:49 ~seed:21
      ~steps:3 ~crashes:2 ~edge_dels:2 ~edge_adds:2 ~revive_prob:0.5 ~halo:1
  in
  let csv () =
    let r = Chaos.run sp in
    (* timings differ across runs; the CSV is deterministic minus them *)
    List.map
      (fun (row : Chaos.step_row) -> { row with Chaos.repair_seconds = 0.; scratch_seconds = 0. })
      r.Chaos.rows
    |> Chaos.csv
  in
  check bool "same csv twice" true (csv () = csv ())

let test_chaos_default_sweep_clean () =
  let specs = Chaos.default_specs ~count:15 ~n:48 ~steps:2 ~seed:77 () in
  let results = Chaos.sweep specs in
  List.iter2
    (fun sp r ->
      match r.Chaos.failures with
      | [] -> ()
      | (step, v) :: _ ->
          Alcotest.failf "%s %s seed=%d step %d: %s"
            (Chaos.algo_label sp.Chaos.algo)
            sp.Chaos.family sp.Chaos.seed step v)
    specs results;
  check int "one row per step" 30
    (List.length (List.concat_map (fun r -> r.Chaos.rows) results))

let test_chaos_spec_validation () =
  expect_invalid "zero steps" (fun () ->
      Chaos.spec (Chaos.Decomposer "greedy") ~family:"grid" ~n:16 ~seed:1
        ~steps:0);
  expect_invalid "negative halo" (fun () ->
      Chaos.spec (Chaos.Decomposer "greedy") ~family:"grid" ~n:16 ~seed:1
        ~halo:(-1))

let test_chaos_touched_bound_reported () =
  (* a giant-cluster algorithm must blow a tight touched bound — the
     violation is reported, not silently absorbed *)
  let sp =
    Chaos.spec (Chaos.Decomposer "thm2.3") ~family:"grid" ~n:64 ~seed:5
      ~steps:1 ~max_touched:0.2
  in
  let r = Chaos.run sp in
  check bool "violation surfaced" true
    (List.exists (fun (_, v) -> String.length v > 0) r.Chaos.failures)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "chaos"
    [
      ( "churn",
        [
          Alcotest.test_case "down intervals" `Quick test_churn_intervals;
          Alcotest.test_case "re-crash after revive" `Quick test_churn_recrash;
          Alcotest.test_case "validation" `Quick test_churn_validation;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "config validation" `Quick
            test_backoff_config_validation;
          Alcotest.test_case "transparency under drops" `Quick
            test_backoff_transparency_under_drops;
          Alcotest.test_case "capped retries detect crashes" `Quick
            test_max_retries_detects_crash;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "deterministic" `Quick test_chaos_deterministic;
          Alcotest.test_case "default mix has no violations" `Quick
            test_chaos_default_sweep_clean;
          Alcotest.test_case "spec validation" `Quick test_chaos_spec_validation;
          Alcotest.test_case "touched bound violations surface" `Quick
            test_chaos_touched_bound_reported;
        ] );
    ]
