open Dsgraph

type stats = {
  iterations : int;
  weak_rounds : int;
  ball_rounds : int;
  max_bits : int;
  all_matched : bool;
}

let log2_ceil n =
  let rec go acc k = if k >= n then acc else go (acc + 1) (2 * k) in
  max 1 (go 0 1)

(* ------------------------------------------------------------------ *)
(* Stage B1: masked BFS wave from one source                            *)
(* ------------------------------------------------------------------ *)

type bfs_state = { dist : int; parent : int; announced : bool }

let bfs_stage ?trace g ~mask ~source =
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
          if not (Mask.mem mask node) then begin
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
  let states, stats =
    Congest.Sim.simulate
      ~config:{ Congest.Sim.Config.default with trace }
      ~bits:(fun _ -> msg_bits) g program
  in
  ( Array.map (fun s -> s.dist) states,
    Array.map (fun s -> s.parent) states,
    stats )

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

let pair_counts_stage ?trace g ~parent ~contrib =
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
  let states, stats =
    Congest.Sim.simulate
      ~config:{ Congest.Sim.Config.default with trace }
      ~bits:(fun m -> match m with Child -> 1 | Pair _ -> msg_bits)
      g program
  in
  (Array.map (fun s -> (s.acc_a, s.acc_b)) states, stats)

(* ------------------------------------------------------------------ *)
(* Stage B3: broadcast a value down a rooted tree                       *)
(* ------------------------------------------------------------------ *)

type bcast_state = { value : int; relayed : bool }

let broadcast_stage ?trace g ~parent ~root ~value =
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
  let states, stats =
    Congest.Sim.simulate
      ~config:{ Congest.Sim.Config.default with trace }
      ~bits:(fun _ -> msg_bits) g program
  in
  (Array.map (fun s -> s.value) states, stats)

(* ------------------------------------------------------------------ *)
(* The composed transformation                                          *)
(* ------------------------------------------------------------------ *)

let strong_carve ?(preset = Weakdiam.Weak_carving.default_preset) ?trace g
    ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Transform_distributed.strong_carve: epsilon must be in (0, 1)";
  let n_graph = Graph.n g in
  let n = max n_graph 2 in
  let eps' = epsilon /. (2.0 *. float_of_int (log2_ceil n)) in
  let growth_limit = Transform.ball_growth_limit ~n ~epsilon in
  let output = Array.make n_graph (-1) in
  let next_cluster = ref 0 in
  let fresh () =
    let c = !next_cluster in
    incr next_cluster;
    c
  in
  let weak_rounds = ref 0 in
  let ball_rounds = ref 0 in
  let max_bits = ref 0 in
  let all_matched = ref true in
  let iterations = ref 0 in
  let note_bits (s : Congest.Sim.stats) =
    if s.max_bits_seen > !max_bits then max_bits := s.max_bits_seen
  in
  let level = ref (Components.components g |> List.map (Mask.of_list n_graph)) in
  let i = ref 1 in
  Congest.Span.enter trace "transform_sim";
  while !level <> [] do
    Congest.Span.enter_idx trace "iter" !i;
    incr iterations;
    let threshold = float_of_int n /. (2.0 ** float_of_int !i) in
    let next_level = ref [] in
    let iter_weak = ref 0 and iter_ball = ref 0 in
    List.iter
      (fun comp ->
        if Mask.count comp = 1 then
          Mask.iter comp (fun v -> output.(v) <- fresh ())
        else begin
          (* stage W: distributed weak carving on this component *)
          let wd =
            Weakdiam.Distributed.carve ~preset ~domain:comp ?trace g
              ~epsilon:eps'
          in
          if not (Weakdiam.Distributed.matches_engine wd) then
            all_matched := false;
          note_bits wd.Weakdiam.Distributed.sim_stats;
          iter_weak :=
            max !iter_weak
              wd.Weakdiam.Distributed.sim_stats.Congest.Sim.rounds_used;
          let clustering = wd.Weakdiam.Distributed.carving.Cluster.Carving.clustering in
          let giant =
            let best = ref (-1) in
            List.iteri
              (fun c members ->
                if float_of_int (List.length members) > threshold then best := c)
              (Cluster.Clustering.clusters clustering);
            !best
          in
          if giant < 0 then begin
            (* Case I *)
            let alive = Mask.copy comp in
            List.iter
              (fun v -> Mask.remove alive v)
              (Cluster.Clustering.unclustered clustering);
            List.iter
              (fun c -> next_level := Mask.of_list n_graph c :: !next_level)
              (Components.components ~mask:alive g)
          end
          else begin
            (* Case II, as three simulated stages *)
            let root =
              wd.Weakdiam.Distributed.engine.Weakdiam.Weak_carving.forest.(giant)
                .Cluster.Steiner.root
            in
            Congest.Span.enter trace "bfs";
            let dist, parent, b1 = bfs_stage ?trace g ~mask:comp ~source:root in
            Congest.Span.exit trace;
            note_bits b1;
            let stage_rounds = ref b1.Congest.Sim.rounds_used in
            let maxd = Array.fold_left max 0 dist in
            let lo =
              min wd.Weakdiam.Distributed.engine.Weakdiam.Weak_carving.max_depth
                maxd
            in
            let ball_count r =
              (* one simulated paired-count convergecast *)
              Congest.Span.enter trace "pair_counts";
              let totals, s =
                pair_counts_stage ?trace g ~parent ~contrib:(fun v ->
                    if dist.(v) < 0 then (0, 0)
                    else
                      ( (if dist.(v) <= r then 1 else 0),
                        if dist.(v) <= r + 1 then 1 else 0 ))
              in
              Congest.Span.exit trace;
              note_bits s;
              stage_rounds := !stage_rounds + s.Congest.Sim.rounds_used;
              totals.(root)
            in
            let rec find r =
              if r >= lo + growth_limit then r
              else
                let br, br1 = ball_count r in
                if float_of_int br >= (1.0 -. (epsilon /. 2.0)) *. float_of_int br1
                then r
                else find (r + 1)
            in
            let r_star = find lo in
            Congest.Span.enter trace "broadcast";
            let r_known, b3 =
              broadcast_stage ?trace g ~parent ~root ~value:r_star
            in
            Congest.Span.exit trace;
            note_bits b3;
            stage_rounds := !stage_rounds + b3.Congest.Sim.rounds_used;
            iter_ball := max !iter_ball !stage_rounds;
            let cluster_id = fresh () in
            let rest = Mask.copy comp in
            ignore r_known;
            Mask.iter comp (fun v ->
                (* each node decides locally from its distance and the
                   r-star value that stage B3 delivered to every tree node *)
                if dist.(v) >= 0 && dist.(v) <= r_star then begin
                  output.(v) <- cluster_id;
                  Mask.remove rest v
                end
                else if dist.(v) = r_star + 1 then Mask.remove rest v);
            List.iter
              (fun c -> next_level := Mask.of_list n_graph c :: !next_level)
              (Components.components ~mask:rest g)
          end
        end)
      !level;
    weak_rounds := !weak_rounds + !iter_weak;
    ball_rounds := !ball_rounds + !iter_ball;
    level := !next_level;
    incr i;
    Congest.Span.exit trace
  done;
  Congest.Span.exit trace;
  let clustering = Cluster.Clustering.make g ~cluster_of:output in
  let carving = Cluster.Carving.make clustering ~domain:(Mask.full n_graph) in
  ( carving,
    {
      iterations = !iterations;
      weak_rounds = !weak_rounds;
      ball_rounds = !ball_rounds;
      max_bits = !max_bits;
      all_matched = !all_matched;
    } )

let matches_centralized ?(preset = Weakdiam.Weak_carving.default_preset) g
    ~epsilon =
  let distributed, stats = strong_carve ~preset g ~epsilon in
  let weak = Strong_carving.weak_of_preset preset in
  let central, _ = Transform.strong_carve ~weak g ~epsilon in
  let a = distributed.Cluster.Carving.clustering in
  let b = central.Cluster.Carving.clustering in
  let ok = ref stats.all_matched in
  for v = 0 to Graph.n g - 1 do
    if Cluster.Clustering.cluster_of a v <> Cluster.Clustering.cluster_of b v
    then ok := false
  done;
  !ok
