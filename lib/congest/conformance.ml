(* no [open Dsgraph]: it would shadow this library's [Metrics] with
   [Dsgraph.Metrics] *)
module Graph = Dsgraph.Graph

type violation = { invariant : string; node : int; step : int; detail : string }
type check = { name : string; passed : bool; detail : string }

type report = {
  label : string;
  checks : check list;
  violations : violation list;
  violations_dropped : int;
}

let ok r = r.violations = [] && List.for_all (fun c -> c.passed) r.checks

let pp_violation fmt v =
  Format.fprintf fmt "%s: node %d step %d: %s" v.invariant v.node v.step
    v.detail

let pp_report fmt r =
  Format.fprintf fmt "%s: %s@." r.label (if ok r then "ok" else "FAIL");
  List.iter
    (fun c ->
      Format.fprintf fmt "  [%s] %-20s %s@."
        (if c.passed then "pass" else "FAIL")
        c.name c.detail)
    r.checks;
  List.iter (fun v -> Format.fprintf fmt "  [FAIL] %a@." pp_violation v) r.violations;
  if r.violations_dropped > 0 then
    Format.fprintf fmt "  (%d more violations dropped)@." r.violations_dropped

let report_to_json r =
  let checks =
    List.map
      (fun c ->
        Json.Obj
          [
            ("name", Json.Str c.name);
            ("passed", Json.Bool c.passed);
            ("detail", Json.Str c.detail);
          ])
      r.checks
  and violations =
    List.map
      (fun v ->
        Json.Obj
          [
            ("invariant", Json.Str v.invariant);
            ("node", Json.int v.node);
            ("step", Json.int v.step);
            ("detail", Json.Str v.detail);
          ])
      r.violations
  in
  Json.Obj
    [
      ("label", Json.Str r.label);
      ("ok", Json.Bool (ok r));
      ("checks", Json.Arr checks);
      ("violations", Json.Arr violations);
      ("violations_dropped", Json.int r.violations_dropped);
    ]

(* ------------------------------------------------------------------ *)
(* Recorder and per-round instrumentation: invariants (c), (d), (e)    *)
(* ------------------------------------------------------------------ *)

type recorder = {
  mutable rev_violations : violation list;
  mutable count : int;
  limit : int;
  mutable n_dropped : int;
}

let recorder ?(limit = 200) () =
  { rev_violations = []; count = 0; limit; n_dropped = 0 }

let recorded r = List.rev r.rev_violations
let dropped r = r.n_dropped

let clear r =
  r.rev_violations <- [];
  r.count <- 0;
  r.n_dropped <- 0

let record r ~invariant ~node ~step detail =
  if r.count >= r.limit then r.n_dropped <- r.n_dropped + 1
  else begin
    r.rev_violations <- { invariant; node; step; detail } :: r.rev_violations;
    r.count <- r.count + 1
  end

(* Structural comparison that tolerates functional values: a state that
   contains a closure cannot be compared, so treat it as equal and rely on
   the outbox/halt comparison instead of failing the whole run. *)
let equal_or_incomparable a b =
  match compare a b = 0 with x -> x | exception Invalid_argument _ -> true

let instrument ?(order_invariant = false) rec_ g inner =
  let n = Graph.n g in
  let voted_halt =
    Array.make n false
    [@@domain_unsafe
      "per-node halt flags captured by the instrumented program's \
       closures; indexed by node, so a domain fan-out must shard or \
       atomize them"]
  in
  let steps =
    Array.make n 0
    [@@domain_unsafe
      "per-node step counters captured by the instrumented program's \
       closures; indexed by node, racy only across nodes"]
  in
  let init ~node ~neighbors =
    voted_halt.(node) <- false;
    steps.(node) <- 0;
    inner.Sim.init ~node ~neighbors
  in
  (* the sends of one inner round, for the order comparison of (e) *)
  let sends out ~first =
    List.init (Sim.Out.length out - first) (fun i ->
        (Sim.Out.dst out (first + i), Sim.Out.msg out (first + i)))
  in
  let round ~node ~state ~inbox ~out =
    steps.(node) <- steps.(node) + 1;
    let step = steps.(node) in
    (* the wrapper may be handed an outbox that already holds sends *)
    let first = Sim.Out.length out in
    let state' = inner.Sim.round ~node ~state ~inbox ~out in
    let sent = Sim.Out.length out - first in
    let halt = Sim.Out.halted out in
    (* (c) one message per incident edge, neighbors only; out-degree is
       small, so an earlier duplicate is found by scanning the outbox *)
    for i = first to first + sent - 1 do
      let dst = Sim.Out.dst out i in
      let rec earlier j = j < i && (Sim.Out.dst out j = dst || earlier (j + 1)) in
      if dst < 0 || dst >= n || not (Graph.is_edge g node dst) then
        record rec_ ~invariant:"edge-discipline" ~node ~step
          (Printf.sprintf "sent to non-neighbor %d" dst)
      else if earlier first then
        record rec_ ~invariant:"edge-discipline" ~node ~step
          (Printf.sprintf "sent twice to neighbor %d in one round" dst)
    done;
    (* (d) halt monotonicity: no spontaneous sends or wake-ups *)
    if voted_halt.(node) && Sim.Inbox.is_empty inbox then begin
      if sent > 0 then
        record rec_ ~invariant:"halt-monotonic" ~node ~step
          (Printf.sprintf "halted node sent %d message(s) with empty inbox"
             sent);
      if not halt then
        record rec_ ~invariant:"halt-monotonic" ~node ~step
          "halted node un-halted without a delivery"
    end;
    (* (e) inbox-order robustness, for registered programs only *)
    (if order_invariant && Sim.Inbox.length inbox > 1 then
       let out2 = Sim.Out.create () in
       Sim.Out.set_round out2 (Sim.round out);
       let reversed = Sim.Inbox.of_list (List.rev (Sim.Inbox.to_list inbox)) in
       let state2 = inner.Sim.round ~node ~state ~inbox:reversed ~out:out2 in
       if Sim.Out.halted out2 <> halt then
         record rec_ ~invariant:"order-invariant" ~node ~step
           "halt vote depends on inbox order"
       else if
         not
           (equal_or_incomparable
              (List.sort compare (sends out ~first))
              (List.sort compare (sends out2 ~first:0)))
       then
         record rec_ ~invariant:"order-invariant" ~node ~step
           "outbox set depends on inbox order"
       else if not (equal_or_incomparable state' state2) then
         record rec_ ~invariant:"order-invariant" ~node ~step
           "state depends on inbox order");
    voted_halt.(node) <- halt;
    state'
  in
  { Sim.init; round }

type instrumentor = {
  instrument : 'st 'msg. ('st, 'msg) Sim.program -> ('st, 'msg) Sim.program;
}

let instrumentor ?order_invariant rec_ g =
  { instrument = (fun p -> instrument ?order_invariant rec_ g p) }

(* ------------------------------------------------------------------ *)
(* Whole-run verification: invariants (a), (b)                         *)
(* ------------------------------------------------------------------ *)

type totals = { rounds : int; messages : int; max_bits : int }
type expectation = Cost_totals of totals | Sim_totals of totals

type fold = {
  mutable sim_rounds : int;
  mutable sim_messages : int;
  mutable sim_bits : int;
  mutable sim_max_bits : int;
  mutable cost_rounds : int;
  mutable cost_messages : int;
  mutable cost_max_bits : int;
  per_edge : (int * int, int) Hashtbl.t;  (* directed (src, dst) -> bits *)
}

let fold_sink sink =
  let f =
    {
      sim_rounds = 0;
      sim_messages = 0;
      sim_bits = 0;
      sim_max_bits = 0;
      cost_rounds = 0;
      cost_messages = 0;
      cost_max_bits = 0;
      per_edge = Hashtbl.create 64;
    }
  in
  Trace.iter
    (fun ev ->
      match ev with
      | Trace.Round_start _ -> f.sim_rounds <- f.sim_rounds + 1
      | Trace.Message_sent { src; dst; bits; _ } ->
          f.sim_messages <- f.sim_messages + 1;
          f.sim_bits <- f.sim_bits + bits;
          if bits > f.sim_max_bits then f.sim_max_bits <- bits;
          let key = (src, dst) in
          let prev =
            match Hashtbl.find_opt f.per_edge key with
            | Some b -> b
            | None -> 0
          in
          Hashtbl.replace f.per_edge key (prev + bits)
      | Trace.Cost_charged { rounds; messages; max_bits; _ } ->
          f.cost_rounds <- f.cost_rounds + rounds;
          f.cost_messages <- f.cost_messages + messages;
          if max_bits > f.cost_max_bits then f.cost_max_bits <- max_bits
      | _ -> ())
    sink;
  f

let check_eq name pairs =
  let mismatches =
    List.filter (fun (_, a, b) -> a <> b) pairs
  in
  let detail =
    String.concat ", "
      (List.map (fun (what, a, b) -> Printf.sprintf "%s %d=%d" what a b) pairs)
  in
  { name; passed = mismatches = []; detail }

let consistency_checks ?(expect = []) sink =
  if Trace.truncated sink > 0 then
    [
      {
        name = "capacity";
        passed = false;
        detail =
          Printf.sprintf
            "%d event(s) dropped at sink capacity; exact-sum checks skipped"
            (Trace.truncated sink);
      };
    ]
  else begin
    let f = fold_sink sink in
    let m = Metrics.of_trace sink in
    let c name = Metrics.counter_value (Metrics.counter m name) in
    let bits_hist = Metrics.histogram m "bits_per_message" in
    let per_edge_total = Hashtbl.fold (fun _ b acc -> acc + b) f.per_edge 0 in
    let capacity =
      { name = "capacity"; passed = true; detail = "no events dropped" }
    in
    let bandwidth_sum =
      check_eq "bandwidth-sum"
        [
          ("per-edge=trace", per_edge_total, f.sim_bits);
          ("trace=metrics", f.sim_bits, Metrics.hist_sum bits_hist);
        ]
    in
    let message_count =
      check_eq "message-count"
        [
          ("trace=metrics", f.sim_messages, c "messages_sent");
          ("trace=hist", f.sim_messages, Metrics.hist_count bits_hist);
        ]
    in
    let rounds =
      check_eq "round-count" [ ("trace=metrics", f.sim_rounds, c "rounds") ]
    in
    let max_bits =
      check_eq "max-bits"
        [
          ( "trace=metrics",
            f.sim_max_bits,
            int_of_float
              (Metrics.gauge_max (Metrics.gauge m "max_message_bits")) );
        ]
    in
    let cost_sum =
      check_eq "cost-sum"
        [
          ("rounds trace=metrics", f.cost_rounds, c "cost_rounds");
          ("messages trace=metrics", f.cost_messages, c "cost_messages");
        ]
    in
    let expectation_checks =
      List.mapi
        (fun i e ->
          match e with
          | Cost_totals t ->
              check_eq
                (Printf.sprintf "cost-totals[%d]" i)
                [
                  ("rounds meter=trace", t.rounds, f.cost_rounds);
                  ("messages meter=trace", t.messages, f.cost_messages);
                  ("max-bits meter=trace", t.max_bits, f.cost_max_bits);
                ]
          | Sim_totals t ->
              check_eq
                (Printf.sprintf "sim-totals[%d]" i)
                [
                  ("rounds stats=trace", t.rounds, f.sim_rounds);
                  ("messages stats=trace", t.messages, f.sim_messages);
                  ("max-bits stats=trace", t.max_bits, f.sim_max_bits);
                ])
        expect
    in
    capacity :: bandwidth_sum :: message_count :: rounds :: max_bits
    :: cost_sum :: expectation_checks
  end

let verify_run ?(label = "run") ?capacity ?recorder:rec_ ~run () =
  let sink1 = Trace.sink ?capacity () in
  let expect1 = run sink1 in
  let violations1, dropped1 =
    match rec_ with
    | None -> ([], 0)
    | Some r ->
        let v = (recorded r, dropped r) in
        clear r;
        v
  in
  let sink2 = Trace.sink ?capacity () in
  let expect2 = run sink2 in
  let violations2 =
    match rec_ with None -> [] | Some r -> recorded r
  in
  let jsonl1 = Trace.to_jsonl sink1 and jsonl2 = Trace.to_jsonl sink2 in
  let determinism =
    {
      name = "replay-determinism";
      passed = String.equal jsonl1 jsonl2;
      detail =
        (if String.equal jsonl1 jsonl2 then
           Printf.sprintf "%d events byte-identical across 2 runs"
             (Trace.length sink1)
         else
           Printf.sprintf "traces differ (%d vs %d events)"
             (Trace.length sink1) (Trace.length sink2));
    }
  in
  let expect_stable =
    {
      name = "totals-stable";
      passed = expect1 = expect2;
      detail = "returned totals equal across 2 runs";
    }
  in
  let violations_stable =
    match rec_ with
    | None -> []
    | Some _ ->
        [
          {
            name = "violations-stable";
            passed = violations1 = violations2;
            detail =
              Printf.sprintf "%d violation(s) in both runs"
                (List.length violations1);
          };
        ]
  in
  {
    label;
    checks =
      (determinism :: expect_stable :: violations_stable)
      @ consistency_checks ~expect:expect1 sink1;
    violations = violations1;
    violations_dropped = dropped1;
  }

let verify_program ?(label = "program") ?capacity ?order_invariant ?max_rounds
    ?bandwidth ?adversary ~bits g program =
  let rec_ = recorder () in
  let wrapped = instrument ?order_invariant rec_ g program in
  let run sink =
    let config =
      {
        Sim.Config.max_rounds;
        bandwidth;
        adversary = Option.map Fault.create adversary;
        on_incomplete = `Ignore;
        trace = Some sink;
      }
    in
    let _, stats = Sim.simulate ~config ~bits g wrapped in
    [
      Sim_totals
        {
          rounds = stats.Sim.rounds_used;
          messages = stats.Sim.total_messages;
          max_bits = stats.Sim.max_bits_seen;
        };
    ]
  in
  verify_run ~label ?capacity ~recorder:rec_ ~run ()
