open Dsgraph

type result = {
  carving : Cluster.Carving.t;
  sim_stats : Congest.Sim.stats;
  step_budget : int;
  total_steps : int;
  engine : Weak_carving.result;
  forest : Cluster.Steiner.forest Lazy.t;
}

(* Messages are immediate ints: a 4-bit tag, then up to two fields of
   [field_bits] each (a cluster label, then a count or the grow flag), so
   a send allocates nothing. [bits] charges each message the size of the
   variant it encodes, not of its int. *)
let field_bits = 29
let max_nodes = (1 lsl field_bits) - 1 (* also the mask of one field *)
let propose = 0 (* no fields *)
let count_up = 1 (* cluster label, aggregated proposal count *)
let depart_up = 2 (* cluster label, departures (forwarded up) *)
let decide = 3 (* cluster label, grow? (0 or 1) *)
let accepted = 4 (* your proposal to this cluster was accepted *)
let rejected = 5 (* your target stopped: die *)
let attach = 6 (* sender becomes my tree child for this cluster *)
let label_is = 7
let died = 8
let stopped = 9
let msg1 tag c = tag lor (c lsl 4)
let msg2 tag c k = tag lor (c lsl 4) lor (k lsl (4 + field_bits))
let tag m = m land 15
let arg1 m = (m lsr 4) land max_nodes
let arg2 m = m lsr (4 + field_bits)

(* one node's record of one cluster's tree *)
type tree = {
  cl : int;  (* cluster label *)
  parent : int;  (* neighbour position of the parent; -1 at the root *)
  mutable children : int list;  (* neighbour positions, last attached first *)
  mutable nchildren : int;
  (* per step *)
  mutable reports : int;  (* children's counts received *)
  mutable sum : int;  (* their total *)
  mutable sent : bool;  (* counted up (or decided, at the root) *)
  mutable props : int list;  (* proposer positions, last first *)
  mutable nprops : int;
}

(* A node's state is flat: everything about a neighbour sits at its
   position in the sorted row [nbrs], and everything about a cluster in
   the node's [trees]. The per-step tables (proposals, counts, reports)
   live in the trees: only tree clusters are ever read back. Edges are
   drained in ascending position and trees aggregated in creation
   order. *)
type nstate = {
  id : int;
  mutable label : int; (* >= 0 cluster label, -2 dead *)
  nbrs : int array;  (* neighbour ids, ascending *)
  nbr_label : int array;
  mutable trees : tree array; (* in creation order *)
  mutable ntrees : int;
  mutable nsent : int;  (* trees with [sent] this step *)
  mutable agg_due : bool;  (* this step's first aggregation has not run *)
  mutable stopped : int array; (* clusters stopped this phase *)
  mutable nstopped : int;
  (* root-side bookkeeping, meaningful when some cluster label = id *)
  mutable size : int;
  mutable joined : int;
  (* one FIFO per edge: linked cells, [qhead.(p) = -1] empty *)
  qhead : int array;
  qtail : int array;
  mutable cell_msg : int array;
  mutable cell_next : int array;
  mutable free : int;
  mutable queued : int; (* messages waiting in the FIFOs *)
  mutable recv : int -> int -> unit;  (* [process st], made once: a round allocates no closure *)
  mutable round_in_step : int;
  mutable last_round : int; (* the simulator round of the last call *)
  mutable steps_left_in_phase : int;
  mutable phases_left : int list; (* step counts of the remaining phases *)
  mutable bit : int; (* current phase's bit *)
}

let is_red bit lbl = (lbl lsr bit) land 1 = 1

(* neighbour id -> position in the sorted row *)
let position st v =
  let lo = ref 0 and hi = ref (Array.length st.nbrs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if st.nbrs.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* the index of cluster [c]'s tree, -1 if none; newest trees first, as
   the ones a message is about are mostly recent *)
let rec find_tree_from st c i =
  if i < 0 || st.trees.(i).cl = c then i else find_tree_from st c (i - 1)

let find_tree st c = find_tree_from st c (st.ntrees - 1)

let add_tree st c ~parent =
  let t =
    {
      cl = c;
      parent;
      children = [];
      nchildren = 0;
      reports = 0;
      sum = 0;
      sent = false;
      props = [];
      nprops = 0;
    }
  in
  let k = st.ntrees in
  if k = Array.length st.trees then begin
    let trees = Array.make (max 4 (2 * k)) t in
    Array.blit st.trees 0 trees 0 k;
    st.trees <- trees
  end;
  st.trees.(k) <- t;
  st.ntrees <- k + 1

let rec stopped_from st c i =
  i < st.nstopped && (st.stopped.(i) = c || stopped_from st c (i + 1))

let is_stopped st c = stopped_from st c 0

let new_cells st =
  let k = Array.length st.cell_msg in
  let size = max 4 (2 * k) in
  let grow a =
    let b = Array.make size (-1) in
    Array.blit a 0 b 0 k;
    b
  in
  st.cell_msg <- grow st.cell_msg;
  st.cell_next <- grow st.cell_next;
  for c = k to size - 2 do
    st.cell_next.(c) <- c + 1
  done;
  st.free <- k

let enqueue st p m =
  if st.free < 0 then new_cells st;
  let c = st.free in
  st.free <- st.cell_next.(c);
  st.cell_msg.(c) <- m;
  st.cell_next.(c) <- -1;
  if st.qhead.(p) < 0 then st.qhead.(p) <- c else st.cell_next.(st.qtail.(p)) <- c;
  st.qtail.(p) <- c;
  st.queued <- st.queued + 1

(* one message per edge, in ascending neighbour position *)
let drain st out =
  for p = 0 to Array.length st.nbrs - 1 do
    let c = st.qhead.(p) in
    if c >= 0 then begin
      Congest.Sim.send out st.nbrs.(p) st.cell_msg.(c);
      st.qhead.(p) <- st.cell_next.(c);
      st.cell_next.(c) <- st.free;
      st.free <- c;
      st.queued <- st.queued - 1
    end
  done

let broadcast st m =
  for p = 0 to Array.length st.nbrs - 1 do
    enqueue st p m
  done

let rec enqueue_all st m = function
  | [] -> ()
  | p :: rest ->
      enqueue st p m;
      enqueue_all st m rest

(* mark a cluster stopped; members announce it to their neighborhood *)
let note_stopped st c =
  if not (is_stopped st c) then begin
    if st.nstopped = Array.length st.stopped then begin
      let a = Array.make (max 4 (2 * st.nstopped)) 0 in
      Array.blit st.stopped 0 a 0 st.nstopped;
      st.stopped <- a
    end;
    st.stopped.(st.nstopped) <- c;
    st.nstopped <- st.nstopped + 1;
    if st.label = c then broadcast st (msg1 stopped c)
  end

let depart st old =
  if old >= 0 then
    if old = st.id then st.size <- st.size - 1
    else
      let i = find_tree st old in
      (* always found: members hold a tree entry *)
      if i >= 0 then enqueue st st.trees.(i).parent (msg2 depart_up old 1)

let handle_decide st c grow =
  let i = find_tree st c in
  if i >= 0 then
    enqueue_all st (msg2 decide c (Bool.to_int grow)) st.trees.(i).children;
  if not grow then note_stopped st c;
  if i >= 0 then begin
    let t = st.trees.(i) in
    enqueue_all st (if grow then msg1 accepted c else rejected) t.props;
    t.props <- [];
    t.nprops <- 0
  end

let join st c contact =
  let old = st.label in
  depart st old;
  st.label <- c;
  if find_tree st c < 0 then begin
    add_tree st c ~parent:contact;
    enqueue st contact (msg1 attach c)
  end;
  broadcast st (msg1 label_is c)

let die st =
  depart st st.label;
  st.label <- -2;
  broadcast st died

let process st sender m =
  let k = tag m in
  if k = label_is then st.nbr_label.(position st sender) <- arg1 m
  else if k = died then st.nbr_label.(position st sender) <- -2
  else if k = stopped then note_stopped st (arg1 m)
  else if k = propose then begin
    let i = find_tree st st.label in
    if i >= 0 then begin
      let t = st.trees.(i) in
      t.props <- position st sender :: t.props;
      t.nprops <- t.nprops + 1
    end
  end
  else if k = count_up then begin
    let i = find_tree st (arg1 m) in
    if i >= 0 then begin
      let t = st.trees.(i) in
      t.reports <- t.reports + 1;
      t.sum <- t.sum + arg2 m
    end
  end
  else if k = depart_up then begin
    let c = arg1 m in
    if c = st.id then st.size <- st.size - arg2 m
    else
      let i = find_tree st c in
      if i >= 0 then enqueue st st.trees.(i).parent m
  end
  else if k = decide then handle_decide st (arg1 m) (arg2 m = 1)
  else if k = accepted then join st (arg1 m) (position st sender)
  else if k = rejected then die st
  else begin
    (* attach *)
    let i = find_tree st (arg1 m) in
    if i >= 0 then begin
      let t = st.trees.(i) in
      t.children <- position st sender :: t.children;
      t.nchildren <- t.nchildren + 1
    end
  end

(* Everything needed to run the node program, shared by the fault-free
   and the reliable-transport entry points. *)
type built = {
  b_engine : Weak_carving.result;
  b_step_budget : int;
  b_total_steps : int;
  b_program : (nstate, int) Congest.Sim.program;
  b_bits : int -> int;
  b_bandwidth : int;
  b_max_rounds : int;
}

let build ?(preset = Weak_carving.default_preset) ?domain g ~epsilon =
  let n = Graph.n g in
  if n > max_nodes then
    invalid_arg
      (Printf.sprintf
         "Weakdiam.Distributed: n = %d exceeds %d, the largest graph whose \
          messages pack into one int"
         n max_nodes);
  let engine = Weak_carving.carve ~preset ?domain g ~epsilon in
  let domain = engine.carving.Cluster.Carving.domain in
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
  (* aggregation pass: once proposals have arrived (round >= 4), each tree
     node reports each cluster once all of that cluster's children have.
     Only red nodes propose, and only to blue labels, so a red cluster's
     count is 0: its tree nodes, parent and child alike, skip it. *)
  let aggregate st =
    for j = 0 to st.ntrees - 1 do
      let t = st.trees.(j) in
      let red = is_red st.bit t.cl in
      if (not t.sent) && (red || t.reports = t.nchildren) then begin
        t.sent <- true;
        st.nsent <- st.nsent + 1;
        let total = (if st.label = t.cl then t.nprops else 0) + t.sum in
        if red then ()
        else if t.cl <> st.id then
          enqueue st t.parent (msg2 count_up t.cl total)
        else if total > 0 then begin
          (* root: decide *)
          let grow = float_of_int total >= threshold st in
          if grow then begin
            st.size <- st.size + total;
            st.joined <- st.joined + total
          end;
          handle_decide st t.cl grow
        end
      end
    done
  in
  let start_step st =
    st.round_in_step <- 1;
    for i = 0 to st.ntrees - 1 do
      let t = st.trees.(i) in
      t.reports <- 0;
      t.sum <- 0;
      t.sent <- false;
      t.props <- [];
      t.nprops <- 0
    done;
    st.nsent <- 0;
    st.agg_due <- true;
    (* red nodes adjacent to a live blue cluster propose to the smallest
       such label, the smallest neighbour id breaking ties *)
    if st.label >= 0 && is_red st.bit st.label then begin
      let best = ref (-1) and best_label = ref max_int in
      for p = 0 to Array.length st.nbrs - 1 do
        let lw = st.nbr_label.(p) in
        if
          lw >= 0 && lw < !best_label
          && (not (is_red st.bit lw))
          && not (is_stopped st lw)
        then begin
          best := p;
          best_label := lw
        end
      done;
      if !best >= 0 then enqueue st !best propose
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
      st.nstopped <- 0;
      st.joined <- 0;
      start_step st
    end
  in
  let program =
    {
      Congest.Sim.init =
        (fun ~node ~neighbors:nbrs ->
          let deg = Array.length nbrs in
          let st =
            {
              id = node;
              label = (if Mask.mem domain node then node else -1);
              nbrs;
              nbr_label =
                Array.map (fun w -> if Mask.mem domain w then w else -2) nbrs;
              trees = [||];
              ntrees = 0;
              nsent = 0;
              agg_due = false;
              stopped = [||];
              nstopped = 0;
              size = 1;
              joined = 0;
              qhead = Array.make deg (-1);
              qtail = Array.make deg (-1);
              cell_msg = [||];
              cell_next = [||];
              free = -1;
              queued = 0;
              recv = (fun _ _ -> ());
              round_in_step = 0;
              last_round = 0;
              steps_left_in_phase = 0;
              phases_left = [];
              bit = 0;
            }
          in
          st.recv <- process st;
          if Mask.mem domain node then add_tree st node ~parent:(-1);
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
          let mail = not (Congest.Sim.Inbox.is_empty inbox) in
          if mail then Congest.Sim.Inbox.iter st.recv inbox;
          (* between two calls only mail changes what [aggregate] sees,
             so it runs on mail and once at the step's round 4; it is done
             for the step once every tree has reported *)
          if
            st.round_in_step >= 4 && st.steps_left_in_phase > 0
            && (mail || st.agg_due)
            && st.nsent < st.ntrees
          then begin
            st.agg_due <- false;
            aggregate st
          end;
          (* with nothing queued, only mail, the first aggregate (round 4
             of the step) or the step boundary can make the node act; a
             drain that empties the queue passes that hint at once. A
             finished node halts in the call after its last drain. *)
          let drained = st.queued > 0 in
          if drained then drain st out;
          if st.steps_left_in_phase = 0 && st.phases_left = [] then begin
            if not drained then begin
              Congest.Sim.halt out;
              Congest.Sim.idle out ~rounds:max_int
            end
          end
          else if st.queued = 0 then
            Congest.Sim.idle out
              ~rounds:
                (if st.round_in_step < 4 then 3 - st.round_in_step
                 else step_budget - st.round_in_step);
          st);
    }
  in
  let bits m =
    let k = tag m in
    if k = propose || k = rejected || k = died then 4
    else if k = count_up || k = depart_up then 4 + (2 * id_bits)
    else if k = decide then 5 + id_bits
    else 4 + id_bits
  in
  let max_rounds = ((total_steps + 2) * step_budget) + (4 * step_budget) in
  let bandwidth = max (Congest.Bits.bandwidth ~n) (4 + (2 * id_bits)) in
  {
    b_engine = engine;
    b_step_budget = step_budget;
    b_total_steps = total_steps;
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

(* the simulated trees of the engine's clusters, in its indexing: every
   node that ever entered a tree, with the neighbour it attached to, in
   ascending node order as the engine lists them *)
let forest_of states (engine : Cluster.Steiner.forest) =
  let index = Array.make (Array.length states) (-1) in
  Array.iteri (fun i t -> index.(t.Cluster.Steiner.root) <- i) engine;
  let pairs = Array.make (Array.length engine) [] in
  for v = Array.length states - 1 downto 0 do
    let st = states.(v) in
    for j = 0 to st.ntrees - 1 do
      let t = st.trees.(j) in
      let i = index.(t.cl) in
      if i >= 0 then
        let p = if t.parent < 0 then v else st.nbrs.(t.parent) in
        pairs.(i) <- (v, p) :: pairs.(i)
    done
  done;
  Array.mapi
    (fun i (t : Cluster.Steiner.tree) -> { t with parent = pairs.(i) })
    engine

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
  let carving =
    Cluster.Carving.make clustering
      ~domain:b.b_engine.Weak_carving.carving.Cluster.Carving.domain
  in
  {
    carving;
    sim_stats;
    step_budget = b.b_step_budget;
    total_steps = b.b_total_steps;
    engine = b.b_engine;
    forest = lazy (forest_of states b.b_engine.Weak_carving.forest);
  }

type reliable_result = {
  cluster_of : int array;
  crashed : int list;
  finished : bool array;
  dead_view : int list array;
  r_sim_stats : Congest.Sim.stats;
  transport : Congest.Reliable.transport_stats;
  inner_rounds : int;
  oracle_rounds : int;
  r_step_budget : int;
  r_total_steps : int;
  r_engine : Weak_carving.result;
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

let matches_engine r =
  let sim = r.carving.Cluster.Carving.clustering in
  let eng = r.engine.Weak_carving.carving.Cluster.Carving.clustering in
  let g = Cluster.Clustering.graph sim in
  let n = Graph.n g in
  let ok = ref (Cluster.Clustering.num_clusters sim = Cluster.Clustering.num_clusters eng) in
  (* same dead set and same partition (cluster ids may be permuted; both
     normalize by first appearance, so equality is direct) *)
  for v = 0 to n - 1 do
    if Cluster.Clustering.cluster_of sim v <> Cluster.Clustering.cluster_of eng v
    then ok := false
  done;
  !ok && Lazy.force r.forest = r.engine.Weak_carving.forest
