module Conformance = Congest.Conformance

type row = {
  target : string;
  family : string;
  n : int;
  adversarial : bool;
  report : Conformance.report;
  seconds : float;
}

let ok r = Conformance.ok r.report

(* the reliable-transport runs are chatty (per-edge acks every round), so
   give every sink ample headroom: an overflowing sink fails the row *)
let sink_capacity = 8_000_000

(* ------------------------------------------------------------------ *)
(* Registry leg: engine-level runs, invariants (a) + (b)               *)
(* ------------------------------------------------------------------ *)

let cost_totals cost =
  [
    Conformance.Cost_totals
      {
        rounds = Congest.Cost.rounds cost;
        messages = Congest.Cost.messages cost;
        max_bits = Congest.Cost.max_message_bits cost;
      };
  ]

let timed_row ~target ~family_name ~n ~adversarial mk_report =
  let t0 = Congest.Resource.now () in
  let report = mk_report () in
  {
    target;
    family = family_name;
    n;
    adversarial;
    report;
    seconds = Congest.Resource.now () -. t0;
  }

let decomposer_row ?(seed = 42) (d : Algorithms.decomposer) family ~n =
  let target = "decomposer:" ^ d.Algorithms.name in
  let g = family.Suite.build ~seed ~n in
  timed_row ~target ~family_name:family.Suite.name ~n:(Dsgraph.Graph.n g)
    ~adversarial:false (fun () ->
      Conformance.verify_run ~label:target ~capacity:sink_capacity
        ~run:(fun sink ->
          let cost = Congest.Cost.create ~trace:sink () in
          ignore (d.Algorithms.run ~cost ~seed g);
          cost_totals cost)
        ())

let carver_row ?(seed = 42) ?(epsilon = 0.5) (c : Algorithms.carver) family ~n
    =
  let target = "carver:" ^ c.Algorithms.name in
  let g = family.Suite.build ~seed ~n in
  timed_row ~target ~family_name:family.Suite.name ~n:(Dsgraph.Graph.n g)
    ~adversarial:false (fun () ->
      Conformance.verify_run ~label:target ~capacity:sink_capacity
        ~run:(fun sink ->
          let cost = Congest.Cost.create ~trace:sink () in
          ignore (c.Algorithms.run ~cost ~seed g ~epsilon);
          cost_totals cost)
        ())

let registry_rows ?(seed = 42) ?(epsilon = 0.5) family ~n =
  List.map
    (fun d -> decomposer_row ~seed d family ~n)
    Algorithms.decomposers
  @ List.map
      (fun c -> carver_row ~seed ~epsilon c family ~n)
      Algorithms.carvers

(* ------------------------------------------------------------------ *)
(* Program leg: genuinely distributed runs, invariants (a) – (e)       *)
(* ------------------------------------------------------------------ *)

(* mild but complete adversary: every fault class, two crash-stops *)
let adversary_spec ~seed ~n =
  Congest.Fault.spec ~seed:(seed + 1000) ~drop:0.03 ~duplicate:0.02
    ~delay:0.02 ~delay_window:2
    ~crashes:[ (n / 3, 6); ((2 * n / 3) + 1, 10) ]
    ()

let sim_totals (s : Congest.Sim.stats) =
  [
    Conformance.Sim_totals
      {
        rounds = s.Congest.Sim.rounds_used;
        messages = s.Congest.Sim.total_messages;
        max_bits = s.Congest.Sim.max_bits_seen;
      };
  ]

let program_rows ?(seed = 42) ?(epsilon = 0.5) ~adversarial family ~n =
  let g = family.Suite.build ~seed ~n in
  let gn = Dsgraph.Graph.n g in
  let spec = if adversarial then Some (adversary_spec ~seed ~n:gn) else None in
  let mk target ~order_invariant run_with =
    let rec_ = Conformance.recorder () in
    let inst = Conformance.instrumentor ~order_invariant rec_ g in
    timed_row ~target ~family_name:family.Suite.name ~n:gn ~adversarial
      (fun () ->
        Conformance.verify_run ~label:target ~capacity:sink_capacity
          ~recorder:rec_
          ~run:(fun sink ->
            (* a fresh adversary per run, so the fault schedule replays *)
            let adv = Option.map Congest.Fault.create spec in
            run_with inst adv sink)
          ())
  in
  let classic =
    [
      mk "program:leader_election" ~order_invariant:true
        (fun inst adv sink ->
          let _, stats =
            Congest.Programs.leader_election ?adversary:adv ~conformance:inst
              ~trace:sink g
          in
          sim_totals stats);
      mk "program:bfs" ~order_invariant:false (fun inst adv sink ->
          let _, stats =
            Congest.Programs.bfs ?adversary:adv ~conformance:inst ~trace:sink
              g ~source:0
          in
          sim_totals stats);
      mk "program:subtree_counts" ~order_invariant:true
        (fun inst adv sink ->
          let parent = Dsgraph.Bfs.parents g ~source:0 in
          let _, stats =
            Congest.Programs.subtree_counts ?adversary:adv ~conformance:inst
              ~trace:sink g ~parent
          in
          sim_totals stats);
      mk "program:broadcast" ~order_invariant:true (fun inst adv sink ->
          let parent = Dsgraph.Bfs.parents g ~source:0 in
          let _, stats =
            Congest.Programs.broadcast ?adversary:adv ~conformance:inst
              ~trace:sink g ~parent ~root:0 ~value:gn
          in
          sim_totals stats);
    ]
  in
  let carvings =
    if adversarial then
      [
        (* lossy direct floods are meaningless under faults: run the
           reliable-transport variants, whose outer program is what the
           simulator sees *)
        mk "program:ls_attempt_reliable" ~order_invariant:true
          (fun inst adv sink ->
            let r =
              Baseline.Ls_distributed.attempt_reliable ?adversary:adv
                ~conformance:inst ~trace:sink (Dsgraph.Rng.create seed) g
                ~epsilon
            in
            sim_totals r.Baseline.Ls_distributed.sim_stats);
        mk "program:weakdiam_reliable" ~order_invariant:false
          (fun inst adv sink ->
            let r =
              Weakdiam.Distributed.carve_reliable ?adversary:adv
                ~conformance:inst ~trace:sink g ~epsilon
            in
            sim_totals r.Weakdiam.Distributed.r_sim_stats);
        mk "program:mpx_partition" ~order_invariant:false
          (fun inst adv sink ->
            let r =
              Baseline.Mpx_distributed.partition ~seed ?adversary:adv
                ~conformance:inst ~trace:sink g ~beta:0.4
            in
            sim_totals r.Baseline.Mpx_distributed.sim_stats);
      ]
    else
      [
        mk "program:ls_attempt" ~order_invariant:true (fun inst _adv sink ->
            let _, stats =
              Baseline.Ls_distributed.attempt ~conformance:inst ~trace:sink
                (Dsgraph.Rng.create seed) g ~epsilon
            in
            sim_totals stats);
        mk "program:weakdiam_sim" ~order_invariant:false
          (fun inst _adv sink ->
            let r =
              Weakdiam.Distributed.carve ~conformance:inst ~trace:sink g
                ~epsilon
            in
            sim_totals r.Weakdiam.Distributed.sim_stats);
        mk "program:mpx_partition" ~order_invariant:false
          (fun inst _adv sink ->
            let r =
              Baseline.Mpx_distributed.partition ~seed ~conformance:inst
                ~trace:sink g ~beta:0.4
            in
            sim_totals r.Baseline.Mpx_distributed.sim_stats);
      ]
  in
  classic @ carvings

let suite ?seed ?epsilon ?(adversarial = true) family ~n =
  registry_rows ?seed ?epsilon family ~n
  @ program_rows ?seed ?epsilon ~adversarial:false family ~n
  @ (if adversarial then
       program_rows ?seed ?epsilon ~adversarial:true family ~n
     else [])

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_row fmt r =
  let failed =
    List.filter (fun (c : Conformance.check) -> not c.Conformance.passed)
      r.report.Conformance.checks
  in
  Format.fprintf fmt "%-30s %-10s %6d %-5s %-4s %2d checks, %d violation(s)%s"
    r.target r.family r.n
    (if r.adversarial then "adv" else "clean")
    (if ok r then "ok" else "FAIL")
    (List.length r.report.Conformance.checks)
    (List.length r.report.Conformance.violations)
    (match failed with
    | [] -> ""
    | c :: _ -> Printf.sprintf " [first failed: %s]" c.Conformance.name)

let pp_table fmt rows =
  Format.fprintf fmt "%-30s %-10s %6s %-5s %-4s@." "target" "family" "n"
    "leg" "ok";
  List.iter (fun r -> Format.fprintf fmt "%a@." pp_row r) rows;
  let bad = List.filter (fun r -> not (ok r)) rows in
  if bad <> [] then begin
    Format.fprintf fmt "@.failing reports:@.";
    List.iter
      (fun r -> Conformance.pp_report fmt r.report)
      bad
  end

let csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "target,family,n,adversarial,check,passed,detail\n";
  let cell s = "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\"" in
  List.iter
    (fun r ->
      List.iter
        (fun (c : Conformance.check) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%d,%b,%s,%b,%s\n" r.target r.family r.n
               r.adversarial c.Conformance.name c.Conformance.passed
               (cell c.Conformance.detail)))
        r.report.Conformance.checks;
      List.iter
        (fun (v : Conformance.violation) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%d,%b,violation:%s,false,%s\n" r.target
               r.family r.n r.adversarial v.Conformance.invariant
               (cell
                  (Printf.sprintf "node %d step %d: %s" v.Conformance.node
                     v.Conformance.step v.Conformance.detail))))
        r.report.Conformance.violations)
    rows;
  Buffer.contents buf

let to_json rows =
  Json.to_string
    (Json.Arr
       (List.map
          (fun r ->
            Json.Obj
              [
                ("target", Json.Str r.target);
                ("family", Json.Str r.family);
                ("n", Json.int r.n);
                ("adversarial", Json.Bool r.adversarial);
                ("seconds", Json.float "%.4f" r.seconds);
                ("report", Conformance.report_to_json r.report);
              ])
          rows))
