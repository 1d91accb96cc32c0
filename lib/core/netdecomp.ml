open Dsgraph

(* [Clustering.make] renumbers clusters by first node appearance, so read
   each cluster's color back off one of its members *)
let finish g ~cluster_of ~node_color =
  let clustering = Cluster.Clustering.make g ~cluster_of in
  let color_of_cluster =
    Array.init (Cluster.Clustering.num_clusters clustering) (fun c ->
        node_color.(List.hd (Cluster.Clustering.members clustering c)))
  in
  Cluster.Decomposition.make clustering ~color_of_cluster

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
  finish g ~cluster_of ~node_color

(* Theorem 2.3 carves each color on the remaining nodes alone, through
   one weak-carving scratch and one Transform scratch, and reads the
   clusters back as member arrays: a color costs its remaining nodes,
   not n. The span names are those of [of_carver] over
   [Strong_carving.carve]. *)
let strong ?cost ?(preset = Weakdiam.Weak_carving.default_preset) g =
  let n = Graph.n g in
  let weak = Strong_carving.weak_of_preset preset in
  let scratch = Transform.scratch () in
  let cluster_of = Array.make n (-1) in
  let node_color = Array.make n (-1) in
  let next_cluster = ref 0 in
  let trace = Option.bind cost Congest.Cost.trace in
  let rec colors color remaining =
    if Array.length remaining > 0 then begin
      Congest.Span.enter_idx trace "color" color;
      let clusters, _ =
        Congest.Span.with_span trace "strong_carving" (fun () ->
            Transform.strong_carve_local ?cost ~weak ~scratch g
              ~domain:remaining ~epsilon:0.5)
      in
      if Array.length clusters = 0 then
        failwith "Netdecomp.of_carver: carving clustered no nodes";
      Array.iter
        (fun members ->
          let id = !next_cluster in
          incr next_cluster;
          Array.iter
            (fun v ->
              cluster_of.(v) <- id;
              node_color.(v) <- color)
            members)
        clusters;
      Congest.Span.exit trace;
      let left =
        Array.fold_left
          (fun k v -> if cluster_of.(v) < 0 then k + 1 else k)
          0 remaining
      in
      let next = Array.make left 0 and k = ref 0 in
      Array.iter
        (fun v ->
          if cluster_of.(v) < 0 then begin
            next.(!k) <- v;
            incr k
          end)
        remaining;
      colors (color + 1) next
    end
  in
  Congest.Span.with_span trace "netdecomp" (fun () ->
      colors 0 (Array.init n Fun.id));
  finish g ~cluster_of ~node_color

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
