(* Test-only oracle: the Weakdiam.Distributed node program as it was
   before its per-node state became flat arrays and its messages packed
   ints, kept as it was in substance: per-node Hashtbls for trees,
   neighbour labels, stopped clusters, proposals, counts and reports, a
   [Queue] per edge keyed by neighbour id, a boxed variant per message,
   and an aggregation pass on every call past round 4. test_weakdiam.ml
   diffs the library program against it: labels, [Sim.stats] and trace
   bytes. It reuses the library's [result] and [reliable_result] types;
   [matches_engine] is the library's. *)

open Dsgraph
open Weakdiam
open Weakdiam.Distributed

type msg =
  | Propose
  | Count_up of int * int (* cluster label, aggregated proposal count *)
  | Depart_up of int * int (* cluster label, departures (forwarded up) *)
  | Decide of int * bool (* cluster label, grow? *)
  | Accepted of int (* your proposal to this cluster was accepted *)
  | Rejected (* your target stopped: die *)
  | Attach of int (* sender becomes my tree child for this cluster *)
  | Label_is of int
  | Died
  | Stopped of int

type tree_entry = { parent : int; mutable children : int list }

type nstate = {
  id : int;
  mutable label : int; (* >= 0 cluster label, -2 dead *)
  trees : (int, tree_entry) Hashtbl.t;
  nbr_label : (int, int) Hashtbl.t;
  stopped : (int, unit) Hashtbl.t; (* per phase *)
  (* root-side bookkeeping, meaningful when some cluster label = id *)
  mutable size : int;
  mutable joined : int;
  (* per-step transient state *)
  props : (int, int list ref) Hashtbl.t; (* cluster -> proposer neighbors *)
  counts : (int, int * int) Hashtbl.t; (* cluster -> (#reports, sum) *)
  sent_up : (int, unit) Hashtbl.t;
  outq : (int, msg Queue.t) Hashtbl.t; (* per neighbor FIFO, one per edge *)
  mutable queued : int; (* messages waiting in [outq] *)
  (* [outq]'s queues in drain order, rebuilt when a neighbor is first
     queued to: the reverse of [Hashtbl.fold] order over [outq], the send
     order the golden trace test pins *)
  mutable drain_to : int array;
  mutable drain_q : msg Queue.t array;
  mutable round_in_step : int;
  mutable last_round : int; (* the simulator round of the last call *)
  mutable steps_left_in_phase : int;
  mutable phases_left : int list; (* step counts of the remaining phases *)
  mutable bit : int; (* current phase's bit *)
}

let is_red bit lbl = (lbl lsr bit) land 1 = 1

(* Everything needed to run the node program, shared by the fault-free
   and the reliable-transport entry points. *)
type built = {
  b_engine : Weak_carving.result;
  b_step_budget : int;
  b_total_steps : int;
  b_domain : Mask.t;
  b_program : (nstate, msg) Congest.Sim.program;
  b_bits : msg -> int;
  b_bandwidth : int;
  b_max_rounds : int;
}

let build ?(preset = Weak_carving.default_preset) ?domain g ~epsilon =
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n in
  let engine = Weak_carving.carve ~preset ~domain g ~epsilon in
  let b = Congest.Bits.id_bits ~n in
  let id_bits = b in
  (* Step budget: proposals (2) + count convergecast (depth + queueing) +
     decide broadcast (same) + accept/join/departure traffic (same). A
     deployment would use the worst-case R and L bounds here. *)
  let step_budget =
    max 40 ((4 * (engine.Weak_carving.max_depth + engine.congestion + 6)) + 24)
  in
  let schedule = engine.Weak_carving.steps_per_phase in
  let total_steps = List.fold_left ( + ) 0 schedule in
  let threshold st =
    let rg20 = epsilon /. (2.0 *. float_of_int b) *. float_of_int st.size in
    let ggr21 = epsilon /. 2.0 *. float_of_int (max st.joined 1) in
    match preset with
    | Weak_carving.Rg20 -> rg20
    | Weak_carving.Ggr21 -> ggr21
    | Weak_carving.Hybrid -> Float.min rg20 ggr21
  in
  let enqueue st nbr m =
    let q =
      match Hashtbl.find_opt st.outq nbr with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Hashtbl.replace st.outq nbr q;
          let order = Hashtbl.fold (fun nb q acc -> (nb, q) :: acc) st.outq [] in
          st.drain_to <- Array.of_list (List.map fst order);
          st.drain_q <- Array.of_list (List.map snd order);
          q
    in
    Queue.add m q;
    st.queued <- st.queued + 1
  in
  (* one message per edge, in drain order *)
  let drain st out =
    for i = 0 to Array.length st.drain_q - 1 do
      let q = st.drain_q.(i) in
      if not (Queue.is_empty q) then begin
        Congest.Sim.send out st.drain_to.(i) (Queue.pop q);
        st.queued <- st.queued - 1
      end
    done
  in
  let neighbors = Graph.neighbors g in
  let broadcast st m = Array.iter (fun nb -> enqueue st nb m) (neighbors st.id) in
  (* mark a cluster stopped; members announce it to their neighborhood *)
  let note_stopped st c =
    if not (Hashtbl.mem st.stopped c) then begin
      Hashtbl.replace st.stopped c ();
      if st.label = c then broadcast st (Stopped c)
    end
  in
  let depart st old =
    if old >= 0 then
      if old = st.id then st.size <- st.size - 1
      else
        match Hashtbl.find_opt st.trees old with
        | Some e -> enqueue st e.parent (Depart_up (old, 1))
        | None -> () (* unreachable: members always hold a tree entry *)
  in
  let handle_decide st c grow =
    (match Hashtbl.find_opt st.trees c with
    | Some e -> List.iter (fun child -> enqueue st child (Decide (c, grow))) e.children
    | None -> ());
    if not grow then note_stopped st c;
    (match Hashtbl.find_opt st.props c with
    | None -> ()
    | Some proposers ->
        List.iter
          (fun p -> enqueue st p (if grow then Accepted c else Rejected))
          !proposers;
        Hashtbl.remove st.props c)
  in
  let join st c contact =
    let old = st.label in
    depart st old;
    st.label <- c;
    if not (Hashtbl.mem st.trees c) then begin
      Hashtbl.replace st.trees c { parent = contact; children = [] };
      enqueue st contact (Attach c)
    end;
    broadcast st (Label_is c)
  in
  let die st =
    depart st st.label;
    st.label <- -2;
    broadcast st Died
  in
  let process st sender m =
    match m with
    | Label_is l -> Hashtbl.replace st.nbr_label sender l
    | Died -> Hashtbl.replace st.nbr_label sender (-2)
    | Stopped c -> note_stopped st c
    | Propose ->
        let c = st.label in
        let cell =
          match Hashtbl.find_opt st.props c with
          | Some r -> r
          | None ->
              let r = ref [] in
              Hashtbl.replace st.props c r;
              r
        in
        cell := sender :: !cell
    | Count_up (c, k) ->
        let reports, sum =
          Option.value ~default:(0, 0) (Hashtbl.find_opt st.counts c)
        in
        Hashtbl.replace st.counts c (reports + 1, sum + k)
    | Depart_up (c, k) ->
        if c = st.id then st.size <- st.size - k
        else (
          match Hashtbl.find_opt st.trees c with
          | Some e -> enqueue st e.parent (Depart_up (c, k))
          | None -> ())
    | Decide (c, grow) -> handle_decide st c grow
    | Accepted c -> join st c sender
    | Rejected -> die st
    | Attach c -> (
        match Hashtbl.find_opt st.trees c with
        | Some e -> e.children <- sender :: e.children
        | None -> ())
  in
  (* aggregation pass: once proposals have arrived (round >= 4), each tree
     node reports each cluster once all of that cluster's children have *)
  let aggregate st =
    Hashtbl.iter
      (fun c (e : tree_entry) ->
        if not (Hashtbl.mem st.sent_up c) then begin
          let reports, sum =
            Option.value ~default:(0, 0) (Hashtbl.find_opt st.counts c)
          in
          if reports = List.length e.children then begin
            let own =
              if st.label = c then
                match Hashtbl.find_opt st.props c with
                | Some r -> List.length !r
                | None -> 0
              else 0
            in
            let total = own + sum in
            Hashtbl.replace st.sent_up c ();
            if c = st.id then begin
              (* root: decide *)
              if total > 0 then begin
                let grow = float_of_int total >= threshold st in
                if grow then begin
                  st.size <- st.size + total;
                  st.joined <- st.joined + total
                end;
                handle_decide st c grow
              end
            end
            else enqueue st e.parent (Count_up (c, total))
          end
        end)
      st.trees
  in
  let start_step st =
    st.round_in_step <- 1;
    Hashtbl.reset st.props;
    Hashtbl.reset st.counts;
    Hashtbl.reset st.sent_up;
    (* red nodes adjacent to a live blue cluster propose *)
    if st.label >= 0 && is_red st.bit st.label then begin
      let best = ref None in
      Array.iter
        (fun w ->
          match Hashtbl.find_opt st.nbr_label w with
          | Some lw
            when lw >= 0
                 && (not (is_red st.bit lw))
                 && not (Hashtbl.mem st.stopped lw) -> (
              match !best with
              | None -> best := Some (lw, w)
              | Some (bl, bw) ->
                  if lw < bl || (lw = bl && w < bw) then best := Some (lw, w))
          | _ -> ())
        (neighbors st.id);
      match !best with None -> () | Some (_, w) -> enqueue st w Propose
    end
  in
  let rec start_phase st steps rest =
    if steps = 0 then (
      (* the engine needed no steps for this bit: skip it immediately *)
      match rest with
      | [] ->
          st.steps_left_in_phase <- 0;
          st.phases_left <- [];
          st.round_in_step <- 0
      | s :: r ->
          st.bit <- st.bit + 1;
          start_phase st s r)
    else begin
      st.steps_left_in_phase <- steps;
      st.phases_left <- rest;
      Hashtbl.reset st.stopped;
      st.joined <- 0;
      start_step st
    end
  in
  let program =
    {
      Congest.Sim.init =
        (fun ~node ~neighbors:nbrs ->
          let st =
            {
              id = node;
              label = (if Mask.mem domain node then node else -1);
              trees = Hashtbl.create 4;
              nbr_label = Hashtbl.create (Array.length nbrs);
              stopped = Hashtbl.create 4;
              size = 1;
              joined = 0;
              props = Hashtbl.create 4;
              counts = Hashtbl.create 4;
              sent_up = Hashtbl.create 4;
              outq = Hashtbl.create (Array.length nbrs);
              queued = 0;
              drain_to = [||];
              drain_q = [||];
              round_in_step = 0;
              last_round = 0;
              steps_left_in_phase = 0;
              phases_left = [];
              bit = 0;
            }
          in
          if Mask.mem domain node then
            Hashtbl.replace st.trees node { parent = node; children = [] };
          Array.iter
            (fun w ->
              Hashtbl.replace st.nbr_label w (if Mask.mem domain w then w else -2))
            nbrs;
          (* the whole schedule is known up front (derived from n in a real
             deployment); bit i is phase i. Nodes outside the domain sleep. *)
          (if Mask.mem domain node then
             match schedule with
             | [] -> st.phases_left <- []
             | steps :: rest ->
                 st.bit <- 0;
                 start_phase st steps rest);
          st);
      round =
        (fun ~node ~state:st ~inbox ~out ->
          ignore node;
          let active = st.steps_left_in_phase > 0 || st.phases_left <> [] in
          (* catch up on the rounds skipped under the last wake hint; it
             never reaches past the step boundary *)
          let r = Congest.Sim.round out in
          if active then
            st.round_in_step <- st.round_in_step + (r - st.last_round - 1);
          st.last_round <- r;
          (* schedule bookkeeping: advance step/phase on budget expiry *)
          if active then begin
            if st.round_in_step >= step_budget then begin
              st.steps_left_in_phase <- st.steps_left_in_phase - 1;
              if st.steps_left_in_phase > 0 then start_step st
              else
                match st.phases_left with
                | [] -> st.round_in_step <- 0 (* schedule finished *)
                | steps :: rest ->
                    st.bit <- st.bit + 1;
                    start_phase st steps rest
            end
            else st.round_in_step <- st.round_in_step + 1
          end;
          if not (Congest.Sim.Inbox.is_empty inbox) then
            Congest.Sim.Inbox.iter (process st) inbox;
          (* [sent_up] only ever holds tree keys: once it holds all of
             them, every tree has reported this step *)
          if
            st.round_in_step >= 4 && st.steps_left_in_phase > 0
            && Hashtbl.length st.sent_up < Hashtbl.length st.trees
          then aggregate st;
          (* with nothing queued, only mail, the first aggregate (round 4
             of the step) or the step boundary can make the node act *)
          if st.queued > 0 then drain st out
          else if st.steps_left_in_phase = 0 && st.phases_left = [] then begin
            Congest.Sim.halt out;
            Congest.Sim.idle out ~rounds:max_int
          end
          else
            Congest.Sim.idle out
              ~rounds:
                (if st.round_in_step < 4 then 3 - st.round_in_step
                 else step_budget - st.round_in_step);
          st);
    }
  in
  let bits = function
    | Propose | Rejected | Died -> 4
    | Accepted _ | Attach _ | Label_is _ | Stopped _ -> 4 + id_bits
    | Count_up _ | Depart_up _ -> 4 + (2 * id_bits)
    | Decide _ -> 5 + id_bits
  in
  let max_rounds = ((total_steps + 2) * step_budget) + (4 * step_budget) in
  let bandwidth = max (Congest.Bits.bandwidth ~n) (4 + (2 * id_bits)) in
  {
    b_engine = engine;
    b_step_budget = step_budget;
    b_total_steps = total_steps;
    b_domain = domain;
    b_program = program;
    b_bits = bits;
    b_bandwidth = bandwidth;
    b_max_rounds = max_rounds;
  }

(* The node-program state is mutated in place, so a conformance wrapper
   must never be registered order-invariant here: the (e) re-run would
   corrupt the state. (c)/(d) are read-only and safe. *)
let wrap_conformance conformance program =
  match conformance with
  | None -> program
  | Some c -> c.Congest.Conformance.instrument program

let carve ?conformance ?preset ?domain ?trace g ~epsilon =
  Congest.Span.enter trace "weakdiam_sim";
  let b =
    Congest.Span.with_span trace "engine" (fun () ->
        build ?preset ?domain g ~epsilon)
  in
  let config =
    {
      Congest.Sim.Config.default with
      max_rounds = Some b.b_max_rounds;
      bandwidth = Some b.b_bandwidth;
      trace;
    }
  in
  Congest.Span.enter trace "simulate";
  let states, sim_stats =
    Congest.Sim.simulate ~config ~bits:b.b_bits g
      (wrap_conformance conformance b.b_program)
  in
  Congest.Span.exit trace;
  Congest.Span.exit trace;
  let cluster_of = Array.map (fun st -> st.label) states in
  let clustering = Cluster.Clustering.make g ~cluster_of in
  let carving = Cluster.Carving.make clustering ~domain:b.b_domain in
  {
    carving;
    sim_stats;
    step_budget = b.b_step_budget;
    total_steps = b.b_total_steps;
    engine = b.b_engine;
  }

let carve_reliable ?adversary ?conformance ?(liveness_timeout = 64) ?preset
    ?domain ?trace g ~epsilon =
  Congest.Span.enter trace "weakdiam_reliable";
  let b =
    Congest.Span.with_span trace "engine" (fun () ->
        build ?preset ?domain g ~epsilon)
  in
  (* Sizing oracle: the program is deterministic, so a fault-free run
     tells us exactly how many inner rounds the computation needs; the
     wrapper then executes that many plus slack. Running the program value
     twice is safe — [init] builds fresh state each run. *)
  let oracle_config =
    {
      Congest.Sim.Config.default with
      max_rounds = Some b.b_max_rounds;
      bandwidth = Some b.b_bandwidth;
    }
  in
  let _, oracle_stats =
    Congest.Span.with_span trace "oracle" (fun () ->
        Congest.Sim.simulate ~config:oracle_config ~bits:b.b_bits g b.b_program)
  in
  let oracle_rounds = oracle_stats.Congest.Sim.rounds_used in
  let inner_rounds = oracle_rounds + b.b_step_budget + 8 in
  let cfg = Congest.Reliable.config ~inner_rounds ~liveness_timeout () in
  let sim =
    {
      Congest.Sim.Config.default with
      adversary;
      on_incomplete = `Ignore;
      bandwidth = Some b.b_bandwidth;
      trace;
    }
  in
  Congest.Span.enter trace "simulate";
  let r =
    Congest.Reliable.simulate ~sim cfg ~bits:b.b_bits g
      (wrap_conformance conformance b.b_program)
  in
  Congest.Span.exit trace;
  Congest.Span.exit trace;
  let cluster_of =
    Array.map (fun st -> st.label) r.Congest.Reliable.states
  in
  let crashed = r.Congest.Reliable.sim_stats.Congest.Sim.faults.crashed in
  List.iter (fun v -> cluster_of.(v) <- -2) crashed;
  {
    cluster_of;
    crashed;
    finished = r.Congest.Reliable.finished;
    dead_view = r.Congest.Reliable.dead_view;
    r_sim_stats = r.Congest.Reliable.sim_stats;
    transport = r.Congest.Reliable.transport;
    inner_rounds;
    oracle_rounds;
    r_step_budget = b.b_step_budget;
    r_total_steps = b.b_total_steps;
    r_engine = b.b_engine;
  }
