open Dsgraph

type stats = {
  iterations : int;
  rounds : int;
  messages : int;
  max_bits : int;
  all_matched : bool;
}

(* ------------------------------------------------------------------ *)
(* Stage B1: BFS wave from one source over the nodes [member] admits    *)
(* ------------------------------------------------------------------ *)

type bfs_state = { dist : int; parent : int; announced : bool }

let bfs_stage g ~member ~source =
  let n = Graph.n g in
  let msg_bits = Congest.Bits.int_bits (max 1 n) in
  let program =
    {
      Congest.Sim.init =
        (fun ~node ~neighbors:_ ->
          if node = source then { dist = 0; parent = source; announced = false }
          else { dist = -1; parent = -1; announced = false });
      round =
        (fun ~node ~state ~inbox ~out ->
          if not (member node) then begin
            Congest.Sim.halt out;
            state
          end
          else
            let state =
              if state.dist >= 0 || Congest.Sim.Inbox.is_empty inbox then state
              else
                (* first arrival wins distance ties *)
                let best_u, best_d =
                  Congest.Sim.Inbox.fold
                    (fun (bu, bd) u d -> if d < bd then (u, d) else (bu, bd))
                    (-1, max_int) inbox
                in
                { dist = best_d + 1; parent = best_u; announced = false }
            in
            if state.dist >= 0 && not state.announced then begin
              Graph.iter_neighbors g node (fun nb ->
                  Congest.Sim.send out nb state.dist);
              { state with announced = true }
            end
            else begin
              Congest.Sim.halt out;
              state
            end);
    }
  in
  ((fun _ -> msg_bits), program)

(* ------------------------------------------------------------------ *)
(* Stage B2: paired-count convergecast over a rooted tree               *)
(* (how many nodes have dist <= r and dist <= r+1)                      *)
(* ------------------------------------------------------------------ *)

type count_msg = Child | Pair of int * int

type count_state = {
  round_no : int;
  pending : int;
  acc_a : int;
  acc_b : int;
  sent_up : bool;
}

let pair_counts_stage g ~parent ~contrib =
  let n = Graph.n g in
  let msg_bits = (2 * Congest.Bits.int_bits (max 1 n)) + 2 in
  let program =
    {
      Congest.Sim.init =
        (fun ~node ~neighbors:_ ->
          let a, b = contrib node in
          { round_no = 0; pending = 0; acc_a = a; acc_b = b; sent_up = false });
      round =
        (fun ~node ~state ~inbox ~out ->
          if parent.(node) = -1 then begin
            Congest.Sim.halt out;
            state
          end
          else
            let state = { state with round_no = state.round_no + 1 } in
            if state.round_no = 1 then begin
              if parent.(node) <> node then
                Congest.Sim.send out parent.(node) Child;
              state
            end
            else
              let state =
                Congest.Sim.Inbox.fold
                  (fun st _ m ->
                    match m with
                    | Child -> { st with pending = st.pending + 1 }
                    | Pair (a, b) ->
                        {
                          st with
                          pending = st.pending - 1;
                          acc_a = st.acc_a + a;
                          acc_b = st.acc_b + b;
                        })
                  state inbox
              in
              let is_root = parent.(node) = node in
              if state.pending = 0 && (not state.sent_up) && not is_root then begin
                Congest.Sim.send out parent.(node) (Pair (state.acc_a, state.acc_b));
                { state with sent_up = true }
              end
              else begin
                if state.sent_up || (is_root && state.pending = 0) then
                  Congest.Sim.halt out;
                state
              end);
    }
  in
  ((function Child -> 1 | Pair _ -> msg_bits), program)

(* ------------------------------------------------------------------ *)
(* Stage B3: broadcast a value down a rooted tree                       *)
(* ------------------------------------------------------------------ *)

type bcast_state = { value : int; relayed : bool }

let broadcast_stage g ~parent ~root ~value =
  let n = Graph.n g in
  let msg_bits = Congest.Bits.int_bits (max 1 (n + value)) in
  (* children lists derived implicitly: a node relays to neighbors that
     name it as parent *)
  let program =
    {
      Congest.Sim.init =
        (fun ~node ~neighbors:_ ->
          if node = root then { value; relayed = false }
          else { value = -1; relayed = false });
      round =
        (fun ~node ~state ~inbox ~out ->
          if parent.(node) = -1 then begin
            Congest.Sim.halt out;
            state
          end
          else
            let state =
              if state.value = -1 && not (Congest.Sim.Inbox.is_empty inbox) then
                (* the first delivery carries the value *)
                let v =
                  Congest.Sim.Inbox.fold
                    (fun acc _ v -> if acc = -1 then v else acc)
                    (-1) inbox
                in
                { state with value = v }
              else state
            in
            if state.value >= 0 && not state.relayed then begin
              (* children in descending id order *)
              let nbrs = Graph.neighbors g node in
              for i = Array.length nbrs - 1 downto 0 do
                let w = nbrs.(i) in
                if parent.(w) = node && w <> node then
                  Congest.Sim.send out w state.value
              done;
              { state with relayed = true }
            end
            else begin
              if state.value >= 0 then Congest.Sim.halt out;
              state
            end);
    }
  in
  ((fun _ -> msg_bits), program)

(* ------------------------------------------------------------------ *)
(* The two stages of Theorem 2.1's levels, simulated                    *)
(* ------------------------------------------------------------------ *)

(* a simulated stage's measured rounds, messages and largest message *)
let charge cost tag (st : Congest.Sim.stats) =
  Congest.Cost.charge cost ~rounds:st.rounds_used ~messages:st.total_messages
    ~max_bits:st.max_bits_seen tag

(* A: the weak carving as a node program on the component; its clusters
   are the simulated ones, its roots, depth and congestion the engine's *)
let weak_stage ~preset ?trace ~matched ~cost g ~domain ~epsilon =
  let mask = Mask.empty (Graph.n g) in
  Array.iter (Mask.add mask) domain;
  let wd : Weakdiam.Distributed.result =
    Weakdiam.Distributed.carve ~preset ~domain:mask ?trace g ~epsilon
  in
  if not (Weakdiam.Distributed.matches_engine wd) then matched := false;
  charge cost "transform_sim.weak" wd.sim_stats;
  let e = wd.engine in
  {
    Transform.clusters =
      Array.of_list
        (List.map Array.of_list
           (Cluster.Clustering.clusters wd.carving.clustering));
    roots = Array.map (fun (t : Cluster.Steiner.tree) -> t.root) e.forest;
    depth = e.max_depth;
    congestion = e.congestion;
  }

(* Case II's ball: B1 from the root, one B2 per radius the r* rule asks
   about, then B3 of r*, after which each node decides locally from its
   distance whether it is clustered, dead or left for the next level *)
let ball_stage ?trace ~cost (s : Transform.scratch) g comp ~inside ~root
    ~radius =
  let run name (bits, program) =
    let states, st =
      Congest.Span.with_span trace name (fun () ->
          Congest.Sim.simulate
            ~config:{ Congest.Sim.Config.default with trace }
            ~bits g program)
    in
    charge cost ("transform_sim." ^ name) st;
    states
  in
  let b1 =
    run "bfs" (bfs_stage g ~member:(fun v -> s.mark.(v) = inside) ~source:root)
  in
  let dist v = b1.(v).dist and parent = Array.map (fun st -> st.parent) b1 in
  let maxd = ref 0 in
  Array.iter
    (fun v ->
      if dist v >= 0 then begin
        s.mark.(v) <- inside + 1;
        s.value.(v) <- dist v;
        maxd := max !maxd (dist v)
      end)
    comp;
  let counts r =
    let contrib v =
      if dist v < 0 then (0, 0)
      else ((if dist v <= r then 1 else 0), if dist v <= r + 1 then 1 else 0)
    in
    let b2 = run "pair_counts" (pair_counts_stage g ~parent ~contrib) in
    (b2.(root).acc_a, b2.(root).acc_b)
  in
  let r_star = radius ~maxd:!maxd counts in
  ignore (run "broadcast" (broadcast_stage g ~parent ~root ~value:r_star));
  r_star

let strong_carve ?(preset = Weakdiam.Weak_carving.default_preset) ?trace g
    ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Transform_distributed.strong_carve: epsilon must be in (0, 1)";
  let n = Graph.n g in
  let matched = ref true and clusters = ref [] in
  (* composes the stages' simulated counts; it writes nothing to [trace],
     which the simulator already reports every round to *)
  let cost = Congest.Cost.create () in
  let stats =
    Congest.Span.with_span trace "transform" (fun () ->
        Transform.levels ~cost ~trace
          ~weak:(weak_stage ~preset ?trace ~matched)
          ~ball:(ball_stage ?trace) (Transform.scratch ()) g
          ~emit:(fun c -> clusters := c :: !clusters)
          ~epsilon (Array.init n Fun.id))
  in
  ( Cluster.Carving.of_clusters g ~domain:(Mask.full n)
      (Array.of_list !clusters),
    {
      iterations = stats.Transform.iterations;
      rounds = Congest.Cost.rounds cost;
      messages = Congest.Cost.messages cost;
      max_bits = Congest.Cost.max_message_bits cost;
      all_matched = !matched;
    } )

let matches_centralized ?(preset = Weakdiam.Weak_carving.default_preset) g
    ~epsilon =
  let distributed, stats = strong_carve ~preset g ~epsilon in
  let weak = Strong_carving.weak_of_preset preset in
  let central, _ = Transform.strong_carve ~weak g ~epsilon in
  let labels (c : Cluster.Carving.t) =
    Array.init (Graph.n g) (Cluster.Clustering.cluster_of c.clustering)
  in
  stats.all_matched && labels distributed = labels central
