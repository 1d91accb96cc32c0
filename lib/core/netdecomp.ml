open Dsgraph

let of_carver ?cost ?(epsilon = 0.5) ?domain (carver : Cluster.Carving.carver)
    g =
  let n = Graph.n g in
  let cluster_of = Array.make n (-1) in
  let node_color = Array.make n (-1) in
  let next_cluster = ref 0 in
  let trace = Option.bind cost Congest.Cost.trace in
  let rec colors color remaining =
    if Array.length remaining > 0 then begin
      Congest.Span.enter_idx trace "color" color;
      Array.iter
        (fun members ->
          let id = !next_cluster in
          incr next_cluster;
          Array.iter
            (fun v ->
              cluster_of.(v) <- id;
              node_color.(v) <- color)
            members)
        (carver ?cost g ~domain:remaining ~epsilon);
      Congest.Span.exit trace;
      let left =
        Array.fold_left
          (fun k v -> if cluster_of.(v) < 0 then k + 1 else k)
          0 remaining
      in
      if left = Array.length remaining then
        failwith "Netdecomp.of_carver: carving clustered no nodes";
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
      colors 0
        (match domain with
        | Some d ->
            Cluster.Carving.check_domain "Netdecomp.of_carver" g d;
            d
        | None -> Array.init n Fun.id));
  (* [Clustering.make] renumbers clusters by first node appearance, so
     each cluster's color is read back off one of its members *)
  let clustering = Cluster.Clustering.make g ~cluster_of in
  let color_of_cluster =
    Array.init (Cluster.Clustering.num_clusters clustering) (fun c ->
        node_color.(List.hd (Cluster.Clustering.members clustering c)))
  in
  Cluster.Decomposition.make clustering ~color_of_cluster

let strong ?cost ?preset g =
  of_carver ?cost (Strong_carving.carve ?preset ()) g

let strong_improved ?cost ?preset g =
  of_carver ?cost (Strong_carving.carve_improved ?preset ()) g

let weak ?cost ?(preset = Weakdiam.Weak_carving.default_preset) g =
  let scratch = Weakdiam.Weak_carving.scratch () in
  let carver ?cost g ~domain ~epsilon =
    (Weakdiam.Weak_carving.carve_local ~preset ~scratch ?cost g ~domain
       ~epsilon)
      .members
  in
  of_carver ?cost carver g
