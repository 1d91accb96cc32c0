(* Test-only oracle: the Theorem 2.1 transformation that
   lib/core/transform.ml implemented before its domain-local rewrite,
   kept as it was: components are node masks over the whole graph
   (a Mask.of_list per component, a Mask.copy and a masked
   Components.components per case, a whole-graph Bfs.distances for
   Case II), and the weak carver hands back a whole-graph clustering.
   The equivalence property in test_core.ml diffs the two. [engine_weak]
   and [ls_weak] are the two weak carvers in that old form. *)

open Dsgraph

type weak_result = {
  clustering : Cluster.Clustering.t;
  forest : Cluster.Steiner.forest;
  depth : int;
  congestion : int;
}

type weak_carver =
  ?cost:Congest.Cost.t ->
  Dsgraph.Graph.t ->
  domain:Dsgraph.Mask.t ->
  epsilon:float ->
  weak_result

type stats = {
  iterations : int;
  weak_invocations : int;
  max_ball_radius : int;
}

let log2_ceil n =
  let rec go acc k = if k >= n then acc else go (acc + 1) (2 * k) in
  max 1 (go 0 1)

let ball_growth_limit ~n ~epsilon =
  let growth = 1.0 /. (1.0 -. (epsilon /. 2.0)) in
  int_of_float (Float.ceil (log (float_of_int (max n 2)) /. log growth)) + 1

let strong_carve ?cost ~weak ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Transform.strong_carve: epsilon must be in (0, 1)";
  let n_graph = Graph.n g in
  let domain =
    match domain with
    | None -> Mask.full n_graph
    | Some d ->
        if Mask.size d <> n_graph then
          invalid_arg
            (Printf.sprintf
               "Transform.strong_carve: domain mask has size %d, graph has \
                %d nodes"
               (Mask.size d) n_graph);
        d
  in
  let n = max (Mask.count domain) 2 in
  let eps' = epsilon /. (2.0 *. float_of_int (log2_ceil n)) in
  let growth_limit = ball_growth_limit ~n ~epsilon in
  let output = Array.make n_graph (-1) in
  let next_cluster = ref 0 in
  let fresh_cluster () =
    let c = !next_cluster in
    incr next_cluster;
    c
  in
  let weak_invocations = ref 0 in
  let max_ball_radius = ref 0 in
  let iterations = ref 0 in
  let id_bits = Congest.Bits.id_bits ~n:n_graph in
  (* Current level: list of components (as masks). All components of one
     level execute in parallel; we meter each separately and merge. *)
  let level = ref (Components.components ~mask:domain g |> List.map (Mask.of_list n_graph)) in
  let i = ref 1 in
  let trace = Option.bind cost Congest.Cost.trace in
  Congest.Span.enter trace "transform";
  while !level <> [] do
    Congest.Span.enter_idx trace "level" !i;
    incr iterations;
    let threshold = float_of_int n /. (2.0 ** float_of_int !i) in
    let next_level = ref [] in
    let sub_meters = ref [] in
    List.iter
      (fun comp ->
        let sub = Congest.Cost.create () in
        sub_meters := sub :: !sub_meters;
        let comp_size = Mask.count comp in
        if comp_size = 1 then
          (* trivial component: its own output cluster *)
          Mask.iter comp (fun v -> output.(v) <- fresh_cluster ())
        else begin
          incr weak_invocations;
          let wr = weak ?cost:(Some sub) g ~domain:comp ~epsilon:eps' in
          let clustering = wr.clustering in
          (* giant-cluster check: information gathering over the Steiner
             trees costs depth · congestion rounds *)
          Congest.Cost.charge sub
            ~rounds:(max 1 (wr.depth * max 1 wr.congestion))
            ~messages:comp_size ~max_bits:(2 * id_bits) "transform.size_check";
          let giant =
            let best = ref (-1) in
            Array.iteri
              (fun c size -> if float_of_int size > threshold then best := c)
              (Cluster.Clustering.sizes clustering);
            !best
          in
          if giant < 0 then begin
            (* Case I: A's unclustered nodes die; alive components (each a
               subset of one cluster, hence <= n/2^i) continue *)
            let alive = Mask.copy comp in
            List.iter
              (fun v -> Mask.remove alive v)
              (Cluster.Clustering.unclustered clustering);
            List.iter
              (fun c -> next_level := Mask.of_list n_graph c :: !next_level)
              (Components.components ~mask:alive g)
          end
          else begin
            (* Case II: grow a strong-diameter ball from the giant
               cluster's Steiner root that swallows the whole cluster *)
            let root = wr.forest.(giant).Cluster.Steiner.root in
            let dist = Bfs.distances ~mask:comp g ~source:root in
            let maxd = Array.fold_left max 0 dist in
            let cum = Array.make (maxd + 1) 0 in
            Array.iter (fun d -> if d >= 0 then cum.(d) <- cum.(d) + 1) dist;
            for k = 1 to maxd do
              cum.(k) <- cum.(k) + cum.(k - 1)
            done;
            let ball k = if k > maxd then cum.(maxd) else cum.(k) in
            let lo = min wr.depth maxd in
            let rec find r =
              if r >= lo + growth_limit then r
              else if
                float_of_int (ball r)
                >= (1.0 -. (epsilon /. 2.0)) *. float_of_int (ball (r + 1))
              then r
              else find (r + 1)
            in
            let r_star = find lo in
            if r_star > !max_ball_radius then max_ball_radius := r_star;
            Congest.Cost.charge sub ~rounds:(r_star + 2) ~messages:comp_size
              ~max_bits:(2 * id_bits) "transform.ball_bfs";
            let cluster_id = fresh_cluster () in
            let rest = Mask.copy comp in
            Mask.iter comp (fun v ->
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
    (match cost with
    | None -> ()
    | Some c ->
        Congest.Cost.parallel c !sub_meters
          (Printf.sprintf "transform.level_%02d" !i));
    level := !next_level;
    incr i;
    Congest.Span.exit trace
  done;
  Congest.Span.exit trace;
  let clustering = Cluster.Clustering.make g ~cluster_of:output in
  let carving = Cluster.Carving.make clustering ~domain in
  ( carving,
    {
      iterations = !iterations;
      weak_invocations = !weak_invocations;
      max_ball_radius = !max_ball_radius;
    } )

(* Section 2 remark: remove the global-n assumption by pre-clustering with
   the weak carving at eps/2, then transforming inside each weak cluster
   with its own local node count. *)
let strong_carve_unknown_n ?cost ~weak ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Transform.strong_carve_unknown_n: epsilon must be in (0, 1)";
  let n_graph = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n_graph in
  let half = epsilon /. 2.0 in
  let trace = Option.bind cost Congest.Cost.trace in
  Congest.Span.enter trace "transform_unknown_n";
  let pre = weak ?cost g ~domain ~epsilon:half in
  let output = Array.make n_graph (-1) in
  let next = ref 0 in
  let sub_meters = ref [] in
  List.iter
    (fun members ->
      let sub = Congest.Cost.create () in
      sub_meters := sub :: !sub_meters;
      let cluster_domain = Mask.of_list n_graph members in
      let carving, _ =
        strong_carve ~cost:sub ~weak ~domain:cluster_domain g ~epsilon:half
      in
      let clustering = carving.Cluster.Carving.clustering in
      List.iter
        (fun sub_members ->
          let id = !next in
          incr next;
          List.iter (fun v -> output.(v) <- id) sub_members)
        (Cluster.Clustering.clusters clustering))
    (Cluster.Clustering.clusters pre.clustering);
  (match cost with
  | None -> ()
  | Some c -> Congest.Cost.parallel c !sub_meters "transform.unknown_n");
  Congest.Span.exit trace;
  let clustering = Cluster.Clustering.make g ~cluster_of:output in
  Cluster.Carving.make clustering ~domain

(* The weak-diameter engine as the old black box: its whole-graph
   carving, through one scratch. *)
let engine_weak ?(scratch = Weakdiam.Weak_carving.scratch ()) preset :
    weak_carver =
 fun ?cost g ~domain ~epsilon ->
  let r =
    Weakdiam.Weak_carving.carve ~preset ~scratch ?cost
      ~domain:(Mask.to_array domain) g ~epsilon
  in
  {
    clustering = r.carving.Cluster.Carving.clustering;
    forest = r.forest;
    depth = r.max_depth;
    congestion = r.congestion;
  }

(* Linial-Saks as the old black box: the mask-based oracle. *)
let ls_weak rng : weak_carver =
 fun ?cost g ~domain ~epsilon ->
  let carving, forest =
    Linial_saks_ref.carve_with_trees ?cost rng ~domain g ~epsilon
  in
  let depth =
    Array.fold_left (fun acc t -> max acc (Cluster.Steiner.depth t)) 0 forest
  in
  let congestion = Cluster.Steiner.congestion g forest in
  { clustering = carving.Cluster.Carving.clustering; forest; depth; congestion }
