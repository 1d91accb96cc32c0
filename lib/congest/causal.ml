(* Happens-before replay over a recorded trace. Like Span.rollups this
   is a pure consumer of the event stream: two Trace.iter passes, no
   writes into the sink.

   The forward pass exploits the simulator's event order (deliveries of
   a round precede its sends): when a send is seen, the best chain
   value delivered to its source so far is exactly the best over all
   causally earlier deliveries. Sends are matched to deliveries per
   directed edge in FIFO order, which is exact fault-free (at most one
   message per edge per round, delivery one round after the send) and a
   best-effort approximation under adversaries.

   Round indices are our own cumulative Round_start counter, not the
   event's round field: a sink can hold several simulator runs back to
   back (the distributed transforms re-enter Sim.simulate), and the
   cumulative index keeps the happens-before order monotone across
   them. *)

type hop = {
  src : int;
  dst : int;
  sent_round : int;
  delivered_round : int;
  bits : int;
}

type t = {
  nodes : int;
  sim_rounds : int;
  engine_rounds : int;
  rounds : int;
  chain_rounds : int;
  critical_rounds : int;
  slack_rounds : int;
  chain : hop list;
  node_depth : int array;
  node_active : bool array;
  round_critical : bool array;
  exact : bool;
}

(* one in-flight or delivered message during the replay *)
type cell = {
  c_src : int;
  c_dst : int;
  c_sent : int;
  c_bits : int;
  c_pred : int;  (* cell index of the delivery this send depends on; -1 *)
  c_base : int;  (* chain value at the sender when sent *)
  mutable c_delivered : int;  (* -1 until matched *)
  mutable c_value : int;
}

let analyze sink =
  (* pass 1: node-id range, engine rounds, and exactness markers *)
  let max_node = ref (-1) in
  let exact = ref (Trace.truncated sink = 0) in
  let sim_rounds = ref 0 in
  let engine_rounds = ref 0 in
  let see v = if v > !max_node then max_node := v in
  Trace.iter
    (fun ev ->
      match ev with
      | Trace.Round_start _ -> incr sim_rounds
      | Trace.Message_sent { src; dst; _ }
      | Trace.Message_delivered { src; dst; _ } ->
          see src;
          see dst
      | Trace.Message_dropped { src; dst; _ }
      | Trace.Message_duplicated { src; dst; _ }
      | Trace.Message_delayed { src; dst; _ } ->
          see src;
          see dst;
          exact := false
      | Trace.Node_halted { node; _ } -> see node
      | Trace.Node_crashed { node; _ } ->
          see node;
          exact := false
      | Trace.Bandwidth_high_water { node; _ } -> see node
      | Trace.Cost_charged { rounds; _ } ->
          engine_rounds := !engine_rounds + rounds
      | Trace.Round_end _ | Trace.Span_enter _ | Trace.Span_exit _ -> ())
    sink;
  let nodes = !max_node + 1 in
  let sim_rounds = !sim_rounds and engine_rounds = !engine_rounds in

  (* pass 2: forward happens-before replay *)
  let node_depth = Array.make nodes 0 in
  let node_pred = Array.make nodes (-1) in
  let node_active = Array.make nodes false in
  let cells = ref [||] in
  let n_cells = ref 0 in
  let push c =
    if !n_cells = Array.length !cells then begin
      let grown = Array.make (max 256 (2 * !n_cells)) c in
      Array.blit !cells 0 grown 0 !n_cells;
      cells := grown
    end;
    !cells.(!n_cells) <- c;
    incr n_cells;
    !n_cells - 1
  in
  (* per directed edge, indices of sends awaiting delivery, FIFO *)
  let in_flight : (int, int Queue.t) Hashtbl.t = Hashtbl.create 256 in
  let edge_key src dst = (src * max nodes 1) + dst in
  let cur_round = ref 0 in
  let best_value = ref 0 and best_idx = ref (-1) in
  Trace.iter
    (fun ev ->
      match ev with
      | Trace.Round_start _ -> incr cur_round
      | Trace.Message_sent { src; dst; bits; _ } ->
          node_active.(src) <- true;
          node_active.(dst) <- true;
          let idx =
            push
              {
                c_src = src;
                c_dst = dst;
                c_sent = !cur_round;
                c_bits = bits;
                c_pred = node_pred.(src);
                c_base = node_depth.(src);
                c_delivered = -1;
                c_value = 0;
              }
          in
          let key = edge_key src dst in
          let q =
            match Hashtbl.find_opt in_flight key with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.add in_flight key q;
                q
          in
          Queue.push idx q
      | Trace.Message_delivered { src; dst; _ } -> (
          node_active.(src) <- true;
          node_active.(dst) <- true;
          match Hashtbl.find_opt in_flight (edge_key src dst) with
          | None -> exact := false  (* delivery without a matching send *)
          | Some q when Queue.is_empty q -> exact := false
          | Some q ->
              let idx = Queue.pop q in
              let c = !cells.(idx) in
              c.c_delivered <- !cur_round;
              c.c_value <- c.c_base + max 0 (!cur_round - c.c_sent);
              if c.c_value > node_depth.(dst) then begin
                node_depth.(dst) <- c.c_value;
                node_pred.(dst) <- idx
              end;
              if c.c_value > !best_value then begin
                best_value := c.c_value;
                best_idx := idx
              end)
      | _ -> ())
    sink;

  (* witness chain, causal order, by walking the pred pointers back *)
  let chain = ref [] in
  let idx = ref !best_idx in
  while !idx >= 0 do
    let c = !cells.(!idx) in
    chain :=
      {
        src = c.c_src;
        dst = c.c_dst;
        sent_round = c.c_sent;
        delivered_round = c.c_delivered;
        bits = c.c_bits;
      }
      :: !chain;
    idx := c.c_pred
  done;
  let chain = !chain in
  let round_critical = Array.make (sim_rounds + 1) false in
  List.iter
    (fun h ->
      for r = h.sent_round + 1 to min h.delivered_round sim_rounds do
        round_critical.(r) <- true
      done)
    chain;
  let chain_rounds = !best_value in
  let rounds = sim_rounds + engine_rounds in
  let critical_rounds = engine_rounds + chain_rounds in
  {
    nodes;
    sim_rounds;
    engine_rounds;
    rounds;
    chain_rounds;
    critical_rounds;
    slack_rounds = rounds - critical_rounds;
    chain;
    node_depth;
    node_active;
    round_critical;
    exact = !exact;
  }

let metrics ?into t =
  let m = match into with Some m -> m | None -> Metrics.create () in
  let c name v = Metrics.incr ~by:v (Metrics.counter m name) in
  c "causal_rounds" t.rounds;
  c "causal_chain_rounds" t.chain_rounds;
  c "causal_critical_rounds" t.critical_rounds;
  c "causal_slack_rounds" t.slack_rounds;
  c "causal_chain_hops" (List.length t.chain);
  let h = Metrics.histogram m "causal_node_slack" in
  Array.iteri
    (fun v active ->
      if active then Metrics.observe h (t.chain_rounds - t.node_depth.(v)))
    t.node_active;
  m

let pp ppf t =
  Format.fprintf ppf
    "causal: %d rounds (%d sim + %d engine), critical %d (chain %d over %d \
     hops), slack %d%s"
    t.rounds t.sim_rounds t.engine_rounds t.critical_rounds t.chain_rounds
    (List.length t.chain) t.slack_rounds
    (if t.exact then "" else " (approximate: faults or truncation seen)")
