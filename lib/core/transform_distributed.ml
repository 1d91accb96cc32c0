open Dsgraph

type stats = {
  iterations : int;
  rounds : int;
  messages : int;
  max_bits : int;
  all_matched : bool;
}

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
  let wd : Weakdiam.Distributed.result =
    Weakdiam.Distributed.carve ~preset ~domain ?trace g ~epsilon
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

(* Case II's ball: B1, a BFS wave from the root over the component, one
   B2, a paired-count convergecast over its tree of how many nodes lie
   within r and r + 1, per radius the r* rule asks about, then B3, a
   broadcast of r*, after which each node decides locally from its
   distance whether it is clustered, dead or left for the next level *)
let ball_stage ?trace ~cost (s : Transform.scratch) g comp ~inside ~root
    ~radius =
  let run name stage =
    let result, st = Congest.Span.with_span trace name stage in
    charge cost ("transform_sim." ^ name) st;
    result
  in
  let dist, parent =
    run "bfs" (fun () ->
        Congest.Programs.bfs ?trace
          ~member:(fun v -> s.mark.(v) = inside)
          g ~source:root)
  in
  let maxd = ref 0 in
  Array.iter
    (fun v ->
      if dist.(v) >= 0 then begin
        s.mark.(v) <- inside + 1;
        s.value.(v) <- dist.(v);
        maxd := max !maxd dist.(v)
      end)
    comp;
  let pair_bits = (2 * Congest.Bits.int_bits (max 1 (Graph.n g))) + 2 in
  let counts r =
    let pair v =
      let d = dist.(v) in
      if d < 0 then (0, 0) else (Bool.to_int (d <= r), Bool.to_int (d <= r + 1))
    in
    let sums =
      run "pair_counts" (fun () ->
          Congest.Programs.convergecast ?trace g ~parent ~value:pair
            ~add:(fun (a, b) (c, d) -> (a + c, b + d))
            ~bits:(fun _ -> pair_bits))
    in
    sums.(root)
  in
  let r_star = radius ~maxd:!maxd counts in
  ignore
    (run "broadcast" (fun () ->
         Congest.Programs.broadcast ?trace g ~parent ~root ~value:r_star));
  r_star

let strong_carve ?(preset = Weakdiam.Weak_carving.default_preset) ?trace g
    ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Transform_distributed.strong_carve: epsilon must be in (0, 1)";
  let matched = ref true and iterations = ref 0 in
  (* composes the stages' simulated counts; it writes nothing to [trace],
     which the simulator already reports every round to *)
  let cost = Congest.Cost.create () in
  let levels ?cost:_ g ~domain ~epsilon =
    let clusters = ref [] in
    let stats =
      Congest.Span.with_span trace "transform" (fun () ->
          Transform.levels ~cost ~trace
            ~weak:(weak_stage ~preset ?trace ~matched)
            ~ball:(ball_stage ?trace) (Transform.scratch ()) g
            ~emit:(fun c -> clusters := c :: !clusters)
            ~epsilon domain)
    in
    iterations := stats.Transform.iterations;
    Array.of_list !clusters
  in
  let carving = Cluster.Carving.of_carver levels g ~epsilon in
  ( carving,
    {
      iterations = !iterations;
      rounds = Congest.Cost.rounds cost;
      messages = Congest.Cost.messages cost;
      max_bits = Congest.Cost.max_message_bits cost;
      all_matched = !matched;
    } )

let matches_centralized ?(preset = Weakdiam.Weak_carving.default_preset) g
    ~epsilon =
  let distributed, stats = strong_carve ~preset g ~epsilon in
  let central =
    Cluster.Carving.of_carver (Strong_carving.carve ~preset ()) g ~epsilon
  in
  let labels (c : Cluster.Carving.t) =
    Array.init (Graph.n g) (Cluster.Clustering.cluster_of c.clustering)
  in
  stats.all_matched && labels distributed = labels central
