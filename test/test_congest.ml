open Dsgraph
module Sim = Congest.Sim
module Bits = Congest.Bits
module Cost = Congest.Cost
module Programs = Congest.Programs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Bits                                                                 *)
(* ------------------------------------------------------------------ *)

let test_int_bits () =
  check int "0" 1 (Bits.int_bits 0);
  check int "1" 1 (Bits.int_bits 1);
  check int "2" 2 (Bits.int_bits 2);
  check int "255" 8 (Bits.int_bits 255);
  check int "256" 9 (Bits.int_bits 256)

let test_id_bits () =
  check int "n=1" 1 (Bits.id_bits ~n:1);
  check int "n=2" 1 (Bits.id_bits ~n:2);
  check int "n=1024" 10 (Bits.id_bits ~n:1024);
  check int "n=1025" 11 (Bits.id_bits ~n:1025)

(* ------------------------------------------------------------------ *)
(* Cost meter                                                           *)
(* ------------------------------------------------------------------ *)

let test_cost_accumulates () =
  let c = Cost.create () in
  Cost.charge c ~rounds:3 ~messages:10 ~max_bits:16 "a";
  Cost.charge c ~rounds:2 ~messages:5 ~max_bits:8 "b";
  Cost.charge c "a";
  check int "rounds" 6 (Cost.rounds c);
  check int "messages" 15 (Cost.messages c);
  check int "max bits" 16 (Cost.max_message_bits c);
  Alcotest.(check (list (pair string int)))
    "breakdown" [ ("a", 4); ("b", 2) ] (Cost.breakdown c)

let test_cost_reset () =
  let c = Cost.create () in
  Cost.charge c ~rounds:3 "x";
  Cost.reset c;
  check int "rounds" 0 (Cost.rounds c);
  check int "messages" 0 (Cost.messages c)

let test_cost_parallel () =
  let acc = Cost.create () in
  let mk r =
    let c = Cost.create () in
    Cost.charge c ~rounds:r ~messages:r "sub";
    c
  in
  Cost.parallel acc [ mk 5; mk 9; mk 2 ] "par";
  check int "max rounds" 9 (Cost.rounds acc);
  check int "sum messages" 16 (Cost.messages acc)

let test_cost_parallel_empty () =
  let acc = Cost.create () in
  Cost.parallel acc [] "nothing";
  check int "no rounds" 0 (Cost.rounds acc)

let test_cost_rejects_negative () =
  let c = Cost.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Cost.charge: negative charge") (fun () ->
      Cost.charge c ~rounds:(-1) "x")

(* ------------------------------------------------------------------ *)
(* Simulator                                                            *)
(* ------------------------------------------------------------------ *)

(* a one-round program where each node sends its id to all neighbors and
   records the max received *)
type gossip_state = { sent : bool; best : int }

let gossip_program g =
  {
    Sim.init = (fun ~node ~neighbors:_ -> { sent = false; best = node });
    round =
      (fun ~node ~state ~inbox ~out ->
        let best = Sim.Inbox.fold (fun acc _ m -> max acc m) state.best inbox in
        if not state.sent then begin
          Graph.iter_neighbors g node (fun nb -> Sim.send out nb node);
          { sent = true; best }
        end
        else begin
          Sim.halt out;
          { state with best }
        end);
  }

let test_sim_delivers_messages () =
  let g = Gen.cycle 5 in
  let states, stats = Sim.simulate ~bits:(fun _ -> 3) g (gossip_program g) in
  check bool "halted" true stats.all_halted;
  check int "messages" 10 stats.total_messages;
  (* every node hears its two neighbors *)
  Array.iteri
    (fun v st ->
      let expected = max v (max ((v + 1) mod 5) ((v + 4) mod 5)) in
      check int "max of closed neighborhood" expected st.best)
    states

let test_sim_bandwidth_enforced () =
  let g = Gen.path 2 in
  let oversized =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> ());
      round =
        (fun ~node:_ ~state:_ ~inbox:_ ~out ->
          Sim.send out 1 ();
          Sim.halt out);
    }
  in
  Alcotest.check_raises "bandwidth"
    (Sim.Bandwidth_exceeded
       { node = 0; dst = 1; round = 1; bits = 9999; bandwidth = 10 })
    (fun () ->
      ignore
        (Sim.simulate
           ~config:Sim.Config.(default |> with_bandwidth 10)
           ~bits:(fun _ -> 9999)
           g oversized))

let test_sim_rejects_non_neighbor () =
  let g = Gen.path 3 in
  let bad =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> ());
      round =
        (fun ~node ~state:_ ~inbox:_ ~out ->
          if node = 0 then Sim.send out 2 ();
          Sim.halt out);
    }
  in
  Alcotest.check_raises "non neighbor"
    (Invalid_argument "Sim.simulate: node 0 sent to non-neighbor 2") (fun () ->
      ignore (Sim.simulate ~bits:(fun _ -> 1) g bad))

let test_sim_rejects_double_send () =
  let g = Gen.path 2 in
  let bad =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> ());
      round =
        (fun ~node ~state:_ ~inbox:_ ~out ->
          if node = 0 then begin
            Sim.send out 1 ();
            Sim.send out 1 ()
          end;
          Sim.halt out);
    }
  in
  Alcotest.check_raises "double send"
    (Invalid_argument "Sim.simulate: node 0 sent twice to 1 in one round") (fun () ->
      ignore (Sim.simulate ~bits:(fun _ -> 1) g bad))

let test_sim_max_rounds_cutoff () =
  let g = Gen.path 2 in
  let forever =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> ());
      round = (fun ~node:_ ~state:_ ~inbox:_ ~out:_ -> ());
    }
  in
  let _, stats =
    Sim.simulate
      ~config:Sim.Config.(default |> with_max_rounds 7)
      ~bits:(fun _ -> 1)
      g forever
  in
  check int "cut off" 7 stats.rounds_used;
  check bool "not halted" false stats.all_halted

(* ------------------------------------------------------------------ *)
(* Wake hints                                                           *)
(* ------------------------------------------------------------------ *)

(* [node_round v r ~inbox ~out] is node [v]'s behavior when called
   in round [r]; [calls.(v)] collects the rounds it was called in *)
let hinted_program n node_round =
  let calls = Array.make n [] in
  let program =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> ());
      round =
        (fun ~node ~state:() ~inbox ~out ->
          let r = Sim.round out in
          calls.(node) <- r :: calls.(node);
          node_round node r ~inbox ~out);
    }
  in
  (program, fun v -> List.rev calls.(v))

let round_list = Alcotest.(list int)

let test_idle_node_not_called () =
  let program, calls =
    hinted_program 2 (fun v r ~inbox:_ ~out ->
        if v = 0 then
          if r = 1 then Sim.idle out ~rounds:5
          else begin
            Sim.halt out;
            Sim.idle out ~rounds:max_int
          end
        else if r >= 10 then Sim.halt out)
  in
  let _, stats = Sim.simulate ~bits:(fun _ -> 1) (Gen.path 2) program in
  Alcotest.check round_list "rounds 2..6 skipped" [ 1; 7 ] (calls 0);
  check int "node without hint called every round" 10 (List.length (calls 1));
  check int "run length" 10 stats.Sim.rounds_used;
  check bool "halted" true stats.all_halted

let test_mail_wakes_idle_node () =
  let got = ref [] in
  let program, calls =
    hinted_program 2 (fun v r ~inbox ~out ->
        if v = 0 then begin
          got := Sim.Inbox.to_list inbox @ !got;
          if r = 1 then Sim.idle out ~rounds:100 else Sim.halt out
        end
        else begin
          if r = 3 then Sim.send out 0 42;
          if r >= 3 then Sim.halt out
        end)
  in
  let _, stats = Sim.simulate ~bits:(fun _ -> 7) (Gen.path 2) program in
  Alcotest.check round_list "woken by the round-3 send" [ 1; 4 ] (calls 0);
  Alcotest.(check (list (pair int int))) "delivered" [ (1, 42) ] !got;
  check int "run length" 4 stats.Sim.rounds_used

let test_idle_keeps_halt_vote () =
  (* a halted, skipped node lets the run end ... *)
  let program, calls =
    hinted_program 2 (fun v r ~inbox:_ ~out ->
        if v = 0 then begin
          Sim.halt out;
          Sim.idle out ~rounds:max_int
        end
        else if r >= 6 then Sim.halt out)
  in
  let _, stats = Sim.simulate ~bits:(fun _ -> 1) (Gen.path 2) program in
  Alcotest.check round_list "called once" [ 1 ] (calls 0);
  check int "ends when the last node halts" 6 stats.Sim.rounds_used;
  check bool "all halted" true stats.all_halted;
  (* ... and a running, skipped node keeps it going *)
  let program, calls =
    hinted_program 2 (fun v r ~inbox:_ ~out ->
        if v = 0 && r = 1 then Sim.idle out ~rounds:3 else Sim.halt out)
  in
  let _, stats = Sim.simulate ~bits:(fun _ -> 1) (Gen.path 2) program in
  Alcotest.check round_list "woken after its hint" [ 1; 5 ] (calls 0);
  check int "not ended while it ran" 5 stats.Sim.rounds_used;
  check bool "all halted" true stats.all_halted

let test_idle_max_int_saturates () =
  (* a hint of max_int from round 3 must not wrap to a past round *)
  let program, calls =
    hinted_program 1 (fun _ r ~inbox:_ ~out ->
        if r >= 3 then Sim.idle out ~rounds:max_int)
  in
  let _, stats =
    Sim.simulate
      ~config:
        Sim.Config.(
          default |> with_max_rounds 10 |> with_on_incomplete `Ignore)
      ~bits:(fun _ -> 1)
      (Gen.path 1) program
  in
  Alcotest.check round_list "never woken again" [ 1; 2; 3 ] (calls 0);
  check int "runs to the cutoff" 10 stats.Sim.rounds_used;
  check bool "not halted" false stats.all_halted

let test_crash_while_idle_traced () =
  let program, calls =
    hinted_program 2 (fun v r ~inbox:_ ~out ->
        if v = 0 && r = 1 then Sim.idle out ~rounds:10
        else if r >= 8 then Sim.halt out)
  in
  let adv = Congest.Fault.(create (spec ~crashes:[ (0, 4) ] ())) in
  let sink = Congest.Trace.sink () in
  let _, stats =
    Sim.simulate
      ~config:Sim.Config.(default |> with_adversary adv |> with_trace sink)
      ~bits:(fun _ -> 1)
      (Gen.path 2) program
  in
  Alcotest.check round_list "crashed before its wake round" [ 1 ] (calls 0);
  let crashes =
    List.filter_map
      (function
        | Congest.Trace.Node_crashed { round; node } -> Some (node, round)
        | _ -> None)
      (Congest.Trace.events sink)
  in
  Alcotest.(check (list (pair int int)))
    "crash in its round" [ (0, 4) ] crashes;
  Alcotest.(check (list int)) "crash counted" [ 0 ] stats.Sim.faults.crashed;
  check int "ends when the survivor halts" 8 stats.Sim.rounds_used

(* Random hinted programs. A node is awake when it has mail or its
   sleep has run out; it then folds its inbox into [acc], and a hash of
   (seed, node, round, acc) picks its sends, its halt vote and its next
   hint: 0, 1-3, 4-63, longer than the scheduler's 64-round wheel, or
   max_int. Asleep, it sends nothing, repeats its vote and returns its
   state unchanged, so every hint is sound and dropping them must change
   nothing. [log.(v)] collects (round, hint) of each call of [v]. *)
type sleeper = { nbrs : int array; until : int; vote : bool; acc : int }

let mix a b =
  ((a * 0x9E3779B1) lxor (b + 0x7F4A7C15 + (a lsl 6) + (a lsr 2))) land max_int

let random_hint h =
  match h mod 20 with
  | 0 | 1 | 2 | 3 -> 0
  | 4 | 5 | 6 | 7 | 8 | 9 -> 1 + (h / 20 mod 3)
  | 10 | 11 | 12 -> 4 + (h / 20 mod 60)
  | 13 | 14 | 15 | 16 -> 65 + (h / 20 mod 120)
  | _ -> max_int

let sleeper_program ~seed n =
  let log = Array.make n [] in
  let program =
    {
      Sim.init =
        (fun ~node:_ ~neighbors ->
          { nbrs = neighbors; until = 0; vote = false; acc = 0 });
      round =
        (fun ~node ~state ~inbox ~out ->
          let r = Sim.round out in
          let hint, state =
            if Sim.Inbox.is_empty inbox && r < state.until then
              ( (if state.until = max_int then max_int
                 else state.until - r - 1),
                state )
            else begin
              let acc =
                Sim.Inbox.fold
                  (fun acc src msg -> mix (mix acc src) msg)
                  state.acc inbox
              in
              let h = mix (mix (mix seed node) r) acc in
              if h land 1 = 0 then
                Array.iteri
                  (fun i w ->
                    if (h lsr (3 + (i mod 16))) land 3 = 0 then
                      Sim.send out w (h land 255))
                  state.nbrs;
              let hint = random_hint (h lsr 40) in
              ( hint,
                {
                  state with
                  until = (if hint = max_int then max_int else r + 1 + hint);
                  vote = (h lsr 10) land 1 = 0;
                  acc;
                } )
            end
          in
          if state.vote then Sim.halt out;
          Sim.idle out ~rounds:hint;
          log.(node) <- (r, hint) :: log.(node);
          state);
    }
  in
  (program, log)

(* A crash/revive schedule for a quarter of the nodes: some stay down,
   some come back, some crash again; rounds reach past the first laps of
   the wheel *)
let churn_spec rng ~seed n =
  let crashes = ref [] and revives = ref [] in
  for v = 0 to n - 1 do
    if Rng.int rng 4 = 0 then begin
      let c = 1 + Rng.int rng 150 in
      crashes := (v, c) :: !crashes;
      if Rng.bool rng then begin
        let r = c + 1 + Rng.int rng 80 in
        revives := (v, r) :: !revives;
        if Rng.bool rng then crashes := (v, r + 1 + Rng.int rng 60) :: !crashes
      end
    end
  done;
  Congest.Fault.spec ~seed ~drop:0.1 ~duplicate:0.05 ~delay:0.1
    ~delay_window:3 ~crashes:!crashes ~revives:!revives ()

let run_sleepers ~seed ?spec ?conformance g =
  let program, log = sleeper_program ~seed (Graph.n g) in
  let program =
    match conformance with
    | None -> program
    | Some c -> c.Congest.Conformance.instrument program
  in
  let trace = Congest.Trace.sink () in
  let config =
    {
      Sim.Config.default with
      max_rounds = Some 300;
      on_incomplete = `Ignore;
      trace = Some trace;
      adversary = Option.map Congest.Fault.create spec;
    }
  in
  let states, stats = Sim.simulate ~config ~bits:(fun _ -> 8) g program in
  (states, stats, trace, log)

(* The [Sim.idle] contract, replayed from the outside: node [v] is
   called in round [r] iff it is up and has mail in [r] or [r] is at
   least the wake round its last call set (1 before any call). *)
let calls_follow_contract ?spec g (stats : Sim.stats) trace log =
  let mail = Hashtbl.create 64 in
  Congest.Trace.iter
    (function
      | Congest.Trace.Message_delivered { round; dst; _ } ->
          Hashtbl.replace mail (dst, round) ()
      | _ -> ())
    trace;
  let adv = Option.map Congest.Fault.create spec in
  let up v r =
    match adv with
    | None -> true
    | Some a -> not (Congest.Fault.is_crashed a ~round:r v)
  in
  List.for_all
    (fun v ->
      let rec go r wake calls =
        if r > stats.Sim.rounds_used then calls = []
        else if up v r && (Hashtbl.mem mail (v, r) || r >= wake) then
          match calls with
          | (r', hint) :: rest when r' = r ->
              go (r + 1)
                (if hint >= max_int - r then max_int else r + 1 + hint)
                rest
          | _ -> false
        else
          match calls with
          | (r', _) :: _ when r' = r -> false
          | _ -> go (r + 1) wake calls
      in
      go 1 1 (List.rev log.(v)))
    (Graph.nodes g)

let prop_scheduler_contract =
  QCheck.Test.make
    ~name:"scheduler: calls follow the idle contract, hints change nothing"
    ~count:60
    (QCheck.make
       ~print:(fun (seed, family) -> Printf.sprintf "seed=%d family=%d" seed family)
       QCheck.Gen.(pair (int_bound 1_000_000) (int_range 0 2)))
    (fun (seed, family) ->
      let rng = Rng.create seed in
      let g = Random_graph.make rng family in
      List.for_all
        (fun spec ->
          let states, stats, trace, log = run_sleepers ~seed ?spec g in
          let states', stats', trace', _ =
            run_sleepers ~seed ?spec ~conformance:Hints.drop_hints g
          in
          calls_follow_contract ?spec g stats trace log
          && states = states' && stats = stats'
          && String.equal
               (Congest.Trace.to_jsonl trace)
               (Congest.Trace.to_jsonl trace'))
        [ None; Some (churn_spec rng ~seed (Graph.n g)) ])

(* ------------------------------------------------------------------ *)
(* Allocation per node-round                                            *)
(* ------------------------------------------------------------------ *)

(* minor words allocated by [f ()], after a minor collection so the
   counter starts from a synced heap *)
let minor_words_of f =
  Gc.minor ();
  let before = Gc.minor_words () in
  let r = f () in
  let words = Gc.minor_words () -. before in
  (r, words)

(* every node stays silent for [rounds] rounds, then halts *)
let idle_program ~rounds =
  {
    Sim.init = (fun ~node:_ ~neighbors:_ -> 0);
    round =
      (fun ~node:_ ~state ~inbox:_ ~out ->
        let r = state + 1 in
        if r >= rounds then Sim.halt out;
        r);
  }

let test_idle_rounds_allocate_nothing () =
  let g = Gen.grid 32 32 and rounds = 200 in
  let (_, stats), words =
    minor_words_of (fun () ->
        Sim.simulate ~bits:(fun _ -> 1) g (idle_program ~rounds))
  in
  check int "ran every round" rounds stats.Sim.rounds_used;
  let per = words /. float_of_int (Graph.n g * rounds) in
  check bool
    (Printf.sprintf "idle simulation: %.3f words per node-round < 1" per)
    true (per < 1.0)

(* the same with wake hints of 0 to 138 rounds, so nodes are filed in
   the timer wheel and in its overflow; every wake round is at most
   [rounds], where every node halts *)
let test_hinted_idle_rounds_allocate_nothing () =
  let g = Gen.grid 32 32 and rounds = 200 in
  let hinted =
    {
      Sim.init = (fun ~node ~neighbors:_ -> node mod 7 * 23);
      round =
        (fun ~node:_ ~state ~inbox:_ ~out ->
          let r = Sim.round out in
          if r >= rounds then Sim.halt out
          else Sim.idle out ~rounds:(min state (rounds - r - 1));
          state);
    }
  in
  let (_, stats), words =
    minor_words_of (fun () -> Sim.simulate ~bits:(fun _ -> 1) g hinted)
  in
  check int "ends when every node halts" rounds stats.Sim.rounds_used;
  let per = words /. float_of_int (Graph.n g * rounds) in
  check bool
    (Printf.sprintf "hinted simulation: %.3f words per node-round < 1" per)
    true (per < 1.0)

let test_weak_carve_allocation_bound () =
  let g = Gen.grid 16 16 in
  let r, words =
    minor_words_of (fun () -> Weakdiam.Distributed.carve g ~epsilon:0.5)
  in
  let node_rounds =
    Graph.n g * r.Weakdiam.Distributed.sim_stats.Sim.rounds_used
  in
  let per = words /. float_of_int node_rounds in
  check bool
    (Printf.sprintf "weak carve: %.2f words per node-round <= 8" per)
    true (per <= 8.0)

(* ------------------------------------------------------------------ *)
(* Classic programs                                                     *)
(* ------------------------------------------------------------------ *)

let test_leader_election_connected () =
  let g = Gen.ensure_connected (Rng.create 2) (Gen.erdos_renyi (Rng.create 1) 40 0.08) in
  let leaders, stats = Programs.leader_election g in
  check bool "halted" true stats.all_halted;
  Array.iter (fun l -> check int "leader is min id" 0 l) leaders

let test_leader_election_per_component () =
  let g = Gen.disjoint_union (Gen.cycle 4) (Gen.path 3) in
  let leaders, _ = Programs.leader_election g in
  for v = 0 to 3 do
    check int "first comp" 0 leaders.(v)
  done;
  for v = 4 to 6 do
    check int "second comp" 4 leaders.(v)
  done

let test_leader_election_rounds_near_diameter () =
  let g = Gen.path 30 in
  let _, stats = Programs.leader_election g in
  (* min id is 0 at one end: needs ~29 rounds to flood, plus constant *)
  check bool "rounds lower" true (stats.rounds_used >= 29);
  check bool "rounds upper" true (stats.rounds_used <= 35)

let test_leader_election_message_size () =
  let g = Gen.grid 8 8 in
  let _, stats = Programs.leader_election g in
  check bool "messages are O(log n) bits" true
    (stats.max_bits_seen <= Bits.bandwidth ~n:(Graph.n g))

let test_bfs_program_matches_central () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.ensure_connected rng (Gen.erdos_renyi rng 30 0.1) in
      let (dist, parent), stats = Programs.bfs g ~source:0 in
      check bool "halted" true stats.all_halted;
      let expected = Bfs.distances g ~source:0 in
      Alcotest.(check (array int)) "distances" expected dist;
      for v = 0 to Graph.n g - 1 do
        if v <> 0 && dist.(v) >= 0 then begin
          check bool "parent edge" true (Graph.is_edge g v parent.(v));
          check int "parent closer" (dist.(v) - 1) dist.(parent.(v))
        end
      done;
      (* over a member set, the distances of the induced subgraph *)
      let mask =
        Mask.of_list (Graph.n g)
          (List.filter (fun v -> v = 0 || Rng.int rng 4 > 0) (Graph.nodes g))
      in
      let (dist, _), _ = Programs.bfs ~member:(Mask.mem mask) g ~source:0 in
      Alcotest.(check (array int))
        "member distances" (Bfs.distances ~mask g ~source:0) dist)
    [ 1; 2; 3 ]

let test_bfs_program_rounds_anchor_cost_model () =
  (* this anchors the Cost charging rule: a radius-r wave costs ~r rounds *)
  let g = Gen.path 20 in
  let (_, _), stats = Programs.bfs g ~source:0 in
  check bool "wave takes ecc + O(1) rounds" true
    (stats.rounds_used >= 19 && stats.rounds_used <= 24)

(* a convergecast of each node's (id, 1) *)
let pair_sums g ~parent =
  Programs.convergecast g ~parent
    ~value:(fun v -> (v, 1))
    ~add:(fun (a, b) (c, d) -> (a + c, b + d))
    ~bits:(fun _ -> 2 * Bits.int_bits (Graph.n g))

let test_subtree_counts_path () =
  let g = Gen.path 5 in
  let parent = [| 0; 0; 1; 2; 3 |] in
  let counts, stats = Programs.subtree_counts g ~parent in
  check bool "halted" true stats.all_halted;
  Alcotest.(check (array int)) "counts" [| 5; 4; 3; 2; 1 |] counts;
  let sums, _ = pair_sums g ~parent in
  Alcotest.(check (array (pair int int)))
    "pair sums"
    [| (10, 5); (10, 4); (9, 3); (7, 2); (4, 1) |]
    sums;
  let values, stats = Programs.broadcast g ~parent ~root:0 ~value:9 in
  check bool "broadcast halted" true stats.all_halted;
  Alcotest.(check (array int)) "broadcast" [| 9; 9; 9; 9; 9 |] values

let test_subtree_counts_bfs_tree () =
  let rng = Rng.create 4 in
  let g = Gen.ensure_connected rng (Gen.erdos_renyi rng 25 0.12) in
  let parent = Bfs.parents g ~source:0 in
  let counts, _ = Programs.subtree_counts g ~parent in
  let n = Graph.n g in
  check int "root counts all" n counts.(0);
  let sums, _ = pair_sums g ~parent in
  check (Alcotest.pair int int) "root sums all" (n * (n - 1) / 2, n) sums.(0);
  let values, _ = Programs.broadcast g ~parent ~root:0 ~value:n in
  check bool "every node hears the root" true (Array.for_all (( = ) n) values)

let test_subtree_counts_skips_non_tree_nodes () =
  let g = Gen.path 4 in
  let parent = [| 0; 0; -1; -1 |] in
  let counts, _ = Programs.subtree_counts g ~parent in
  check int "root" 2 counts.(0);
  check int "outside untouched" 1 counts.(2);
  let sums, _ = pair_sums g ~parent in
  check (Alcotest.pair int int) "root sums" (1, 2) sums.(0);
  check (Alcotest.pair int int) "outside sums untouched" (2, 1) sums.(2);
  let values, _ = Programs.broadcast g ~parent ~root:0 ~value:5 in
  Alcotest.(check (array int)) "broadcast stays in the tree"
    [| 5; 5; -1; -1 |] values

let test_cost_max_bits_tracks_max () =
  let c = Cost.create () in
  Cost.charge c ~max_bits:4 "a";
  check int "first charge sets it" 4 (Cost.max_message_bits c);
  Cost.charge c ~max_bits:2 "a";
  check int "smaller charge ignored" 4 (Cost.max_message_bits c);
  Cost.charge c ~max_bits:9 "b";
  check int "larger charge raises it" 9 (Cost.max_message_bits c);
  check int "rounds default to 1 each" 3 (Cost.rounds c);
  check int "messages default to 0" 0 (Cost.messages c)

(* ------------------------------------------------------------------ *)
(* Property: simulator BFS = sequential BFS                             *)
(* ------------------------------------------------------------------ *)

let prop_sim_bfs =
  QCheck.Test.make ~name:"simulated BFS equals sequential BFS" ~count:25
    (QCheck.make
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
       QCheck.Gen.(pair (int_bound 10_000) (int_range 2 30)))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Gen.ensure_connected rng (Gen.erdos_renyi rng n 0.15) in
      let src = seed mod n in
      let (dist, _), _ = Programs.bfs g ~source:src in
      dist = Bfs.distances g ~source:src)

let prop_leader_min =
  QCheck.Test.make ~name:"leader election finds component minimum" ~count:25
    (QCheck.make
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
       QCheck.Gen.(pair (int_bound 10_000) (int_range 2 30)))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n 0.1 in
      let leaders, _ = Programs.leader_election g in
      let ids, _ = Components.component_ids g in
      let mins = Hashtbl.create 8 in
      List.iter
        (fun v ->
          let c = ids.(v) in
          let cur = Option.value ~default:max_int (Hashtbl.find_opt mins c) in
          Hashtbl.replace mins c (min cur v))
        (Graph.nodes g);
      List.for_all
        (fun v -> leaders.(v) = Hashtbl.find mins ids.(v))
        (Graph.nodes g))

(* a Cost meter charged from each program's Sim stats reproduces the
   simulator's own accounting — the anchoring claim of DESIGN.md §5 *)
let prop_cost_matches_sim =
  QCheck.Test.make
    ~name:"Cost meter charged from Sim stats agrees with the simulator"
    ~count:25
    (QCheck.make
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
       QCheck.Gen.(pair (int_bound 10_000) (int_range 2 30)))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Gen.ensure_connected rng (Gen.erdos_renyi rng n 0.15) in
      let c = Cost.create () in
      let charge tag (stats : Sim.stats) =
        Cost.charge c ~rounds:stats.Sim.rounds_used
          ~messages:stats.Sim.total_messages ~max_bits:stats.Sim.max_bits_seen
          tag
      in
      let leaders, s1 = Programs.leader_election g in
      charge "leader" s1;
      let (_, parent), s2 = Programs.bfs g ~source:leaders.(0) in
      charge "bfs" s2;
      let _, s3 = Programs.subtree_counts g ~parent in
      charge "convergecast" s3;
      Cost.rounds c
      = s1.Sim.rounds_used + s2.Sim.rounds_used + s3.Sim.rounds_used
      && Cost.messages c
         = s1.Sim.total_messages + s2.Sim.total_messages + s3.Sim.total_messages
      && Cost.max_message_bits c
         = max s1.Sim.max_bits_seen
             (max s2.Sim.max_bits_seen s3.Sim.max_bits_seen)
      && Cost.breakdown c
         = [
             ("bfs", s2.Sim.rounds_used);
             ("convergecast", s3.Sim.rounds_used);
             ("leader", s1.Sim.rounds_used);
           ])

let () =
  Alcotest.run "congest"
    [
      ( "bits",
        [
          Alcotest.test_case "int_bits" `Quick test_int_bits;
          Alcotest.test_case "id_bits" `Quick test_id_bits;
        ] );
      ( "cost",
        [
          Alcotest.test_case "accumulates" `Quick test_cost_accumulates;
          Alcotest.test_case "reset" `Quick test_cost_reset;
          Alcotest.test_case "parallel" `Quick test_cost_parallel;
          Alcotest.test_case "parallel empty" `Quick test_cost_parallel_empty;
          Alcotest.test_case "rejects negative" `Quick
            test_cost_rejects_negative;
          Alcotest.test_case "max bits tracks max" `Quick
            test_cost_max_bits_tracks_max;
        ] );
      ( "sim",
        [
          Alcotest.test_case "delivers messages" `Quick
            test_sim_delivers_messages;
          Alcotest.test_case "bandwidth enforced" `Quick
            test_sim_bandwidth_enforced;
          Alcotest.test_case "rejects non-neighbor" `Quick
            test_sim_rejects_non_neighbor;
          Alcotest.test_case "rejects double send" `Quick
            test_sim_rejects_double_send;
          Alcotest.test_case "max rounds cutoff" `Quick
            test_sim_max_rounds_cutoff;
        ] );
      ( "wake hint",
        [
          Alcotest.test_case "idle node not called" `Quick
            test_idle_node_not_called;
          Alcotest.test_case "mail wakes early" `Quick
            test_mail_wakes_idle_node;
          Alcotest.test_case "skipped node keeps halt vote" `Quick
            test_idle_keeps_halt_vote;
          Alcotest.test_case "max_int saturates" `Quick
            test_idle_max_int_saturates;
          Alcotest.test_case "crash while idle traced" `Quick
            test_crash_while_idle_traced;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "idle rounds allocate nothing" `Quick
            test_idle_rounds_allocate_nothing;
          Alcotest.test_case "hinted idle rounds allocate nothing" `Quick
            test_hinted_idle_rounds_allocate_nothing;
          Alcotest.test_case "weak carve words per node-round" `Quick
            test_weak_carve_allocation_bound;
        ] );
      ( "programs",
        [
          Alcotest.test_case "leader election" `Quick
            test_leader_election_connected;
          Alcotest.test_case "leader per component" `Quick
            test_leader_election_per_component;
          Alcotest.test_case "leader rounds ~ diameter" `Quick
            test_leader_election_rounds_near_diameter;
          Alcotest.test_case "leader message size" `Quick
            test_leader_election_message_size;
          Alcotest.test_case "bfs matches central" `Quick
            test_bfs_program_matches_central;
          Alcotest.test_case "bfs rounds anchor cost model" `Quick
            test_bfs_program_rounds_anchor_cost_model;
          Alcotest.test_case "subtree counts path" `Quick
            test_subtree_counts_path;
          Alcotest.test_case "subtree counts bfs tree" `Quick
            test_subtree_counts_bfs_tree;
          Alcotest.test_case "subtree counts skip" `Quick
            test_subtree_counts_skips_non_tree_nodes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sim_bfs; prop_leader_min; prop_cost_matches_sim ]
        @ [
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| 27 |])
              prop_scheduler_contract;
          ] );
    ]
