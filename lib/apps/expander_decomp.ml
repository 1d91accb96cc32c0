open Dsgraph

type t = {
  clustering : Cluster.Clustering.t;
  inter_cluster_edges : int;
  levels : int;
}

let decompose ?cost ?(epsilon = 0.5) g =
  let n = Graph.n g in
  let cluster_of = Array.make n (-1) in
  let next = ref 0 in
  let emit members =
    let id = !next in
    incr next;
    Array.iter (fun v -> cluster_of.(v) <- id) members
  in
  let max_level = ref 0 in
  let st = Stamp.create () in
  Stamp.fit st g;
  (* [members]: a connected part, ascending *)
  let rec handle level members =
    if level > !max_level then max_level := level;
    match Array.length members with
    | 0 -> ()
    | 1 -> emit members
    | _ -> (
        match
          Strongdecomp.Sparse_cut.run ?cost ~epsilon st g ~domain:members
        with
        | Strongdecomp.Sparse_cut.Cut { v1; v2; removed } ->
            (* no node is discarded: the separating layer becomes singleton
               clusters (they sit between two well-separated halves) *)
            Array.iter (fun v -> emit [| v |]) removed;
            recurse level v1;
            recurse level v2
        | Strongdecomp.Sparse_cut.Component { u; boundary = _ } ->
            emit u;
            let inside = Stamp.stamp st u in
            recurse level
              (Array.of_seq
                 (Seq.filter
                    (fun v -> st.Stamp.mark.(v) <> inside)
                    (Array.to_seq members))))
  (* the components of an ascending set, each handled one level down *)
  and recurse level members =
    if members <> [||] then
      Array.iter (handle (level + 1))
        (Stamp.components st g members ~inside:(Stamp.stamp st members))
  in
  let all = Array.init n Fun.id in
  Array.iter (handle 0)
    (Stamp.components st g all ~inside:(Stamp.stamp st all));
  let clustering = Cluster.Clustering.make g ~cluster_of in
  let inter_cluster_edges =
    Graph.fold_edges g ~init:0 ~f:(fun acc u v ->
        if Cluster.Clustering.cluster_of clustering u
           <> Cluster.Clustering.cluster_of clustering v
        then acc + 1
        else acc)
  in
  { clustering; inter_cluster_edges; levels = !max_level }

let inter_cluster_fraction g t =
  if Graph.m g = 0 then 0.0
  else float_of_int t.inter_cluster_edges /. float_of_int (Graph.m g)

let check g t =
  let ( let* ) r f = Result.bind r f in
  let* () =
    let unassigned =
      List.filter
        (fun v -> Cluster.Clustering.cluster_of t.clustering v < 0)
        (Graph.nodes g)
    in
    match unassigned with
    | [] -> Ok ()
    | v :: _ -> Error (Printf.sprintf "expander_decomp: node %d unclustered" v)
  in
  let rec go c =
    if c >= Cluster.Clustering.num_clusters t.clustering then Ok ()
    else if Cluster.Clustering.strong_diameter t.clustering c >= 0 then
      go (c + 1)
    else Error (Printf.sprintf "expander_decomp: cluster %d disconnected" c)
  in
  go 0
