open Dsgraph

let of_carver ?cost ?(epsilon = 0.5) ?domain (carver : Strong_carving.carver) g
    =
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n in
  let remaining = Mask.copy domain in
  let cluster_of = Array.make n (-1) in
  let node_color = Array.make n (-1) in
  let next_cluster = ref 0 in
  let color = ref 0 in
  let trace = Option.bind cost Congest.Cost.trace in
  Congest.Span.enter trace "netdecomp";
  while Mask.count remaining > 0 do
    Congest.Span.enter_idx trace "color" !color;
    let carving = carver ?cost ~domain:remaining g ~epsilon in
    let clustering = carving.Cluster.Carving.clustering in
    if Cluster.Clustering.clustered_count clustering = 0 then
      failwith "Netdecomp.of_carver: carving clustered no nodes";
    List.iter
      (fun members ->
        let id = !next_cluster in
        incr next_cluster;
        List.iter
          (fun v ->
            cluster_of.(v) <- id;
            node_color.(v) <- !color;
            Mask.remove remaining v)
          members)
      (Cluster.Clustering.clusters clustering);
    incr color;
    Congest.Span.exit trace
  done;
  Congest.Span.exit trace;
  let clustering = Cluster.Clustering.make g ~cluster_of in
  (* [Clustering.make] renumbers clusters by first node appearance, so read
     each cluster's color back off one of its members *)
  let color_of_cluster =
    Array.init (Cluster.Clustering.num_clusters clustering) (fun c ->
        node_color.(List.hd (Cluster.Clustering.members clustering c)))
  in
  Cluster.Decomposition.make clustering ~color_of_cluster

(* Each decomposition carves through one weak-carving scratch: its
   n-sized arrays are allocated once, not once per carving. *)
let strong ?cost ?(preset = Weakdiam.Weak_carving.default_preset) g =
  let scratch = Weakdiam.Weak_carving.scratch () in
  let carver ?cost ?domain g ~epsilon =
    fst (Strong_carving.carve ?cost ~preset ~scratch ?domain g ~epsilon)
  in
  of_carver ?cost carver g

let strong_improved ?cost ?(preset = Weakdiam.Weak_carving.default_preset) g =
  let scratch = Weakdiam.Weak_carving.scratch () in
  let carver ?cost ?domain g ~epsilon =
    fst
      (Strong_carving.carve_improved ?cost ~preset ~scratch ?domain g ~epsilon)
  in
  of_carver ?cost carver g

let weak ?cost ?(preset = Weakdiam.Weak_carving.default_preset) g =
  let scratch = Weakdiam.Weak_carving.scratch () in
  let carver ?cost ?domain g ~epsilon =
    let r =
      Weakdiam.Weak_carving.carve ~preset ~scratch ?cost ?domain g ~epsilon
    in
    r.carving
  in
  of_carver ?cost carver g
