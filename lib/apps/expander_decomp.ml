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
    List.iter (fun v -> cluster_of.(v) <- id) members
  in
  let max_level = ref 0 in
  let rec handle level members =
    if level > !max_level then max_level := level;
    match members with
    | [] -> ()
    | [ v ] -> emit [ v ]
    | _ -> (
        let part = Mask.of_list n members in
        match Strongdecomp.Sparse_cut.run ?cost ~epsilon g ~domain:part with
        | Strongdecomp.Sparse_cut.Cut { v1; v2; removed } ->
            (* no node is discarded: the separating layer becomes singleton
               clusters (they sit between two well-separated halves) *)
            List.iter (fun v -> emit [ v ]) removed;
            recurse level v1;
            recurse level v2
        | Strongdecomp.Sparse_cut.Component { u; boundary = _ } ->
            emit u;
            let rest = Mask.copy part in
            List.iter (fun v -> Mask.remove rest v) u;
            recurse level (Mask.to_list rest))
  and recurse level members =
    match members with
    | [] -> ()
    | _ ->
        let mask = Mask.of_list n members in
        List.iter (handle (level + 1)) (Components.components ~mask g)
  in
  List.iter (handle 0) (Components.components g);
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
