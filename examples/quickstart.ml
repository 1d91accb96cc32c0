(* Quickstart: build a graph, compute the paper's strong-diameter network
   decomposition (Theorem 2.3), inspect and validate the result.

   Run with:  dune exec examples/quickstart.exe *)

open Dsgraph

let () =
  (* A 24x24 grid: 576 nodes. Any [Graph.t] works. *)
  let g = Gen.grid 24 24 in
  Format.printf "input: %a@." Graph.pp g;

  (* Attach a cost meter to get CONGEST round/message accounting. *)
  let cost = Congest.Cost.create () in

  (* Theorem 2.3: deterministic strong-diameter network decomposition with
     O(log n) colors and O(log^3 n) cluster diameter, small messages. *)
  let decomp = Strongdecomp.Netdecomp.strong ~cost g in

  let clustering = Cluster.Decomposition.clustering decomp in
  let colors, strong_diameter, _ = Cluster.Decomposition.quality decomp in
  Format.printf "decomposition: %d colors, %d clusters, strong diameter %d@."
    colors
    (Cluster.Clustering.num_clusters clustering)
    strong_diameter;
  Format.printf "cost: %a@." Congest.Cost.pp cost;

  (* Every output in this library has a ground-truth checker. *)
  (match Cluster.Decomposition.check ~strong_diameter_bound:strong_diameter
           ~colors_bound:colors decomp
   with
  | Ok () -> Format.printf "checker: decomposition is valid@."
  | Error e -> Format.printf "checker: INVALID (%s)@." e);

  (* The per-color cluster view: same-color clusters are non-adjacent, so
     they can do work simultaneously — that is the whole point. *)
  for color = 0 to colors - 1 do
    let clusters = Cluster.Decomposition.clusters_of_color decomp color in
    let nodes =
      List.fold_left
        (fun acc c -> acc + List.length (Cluster.Clustering.members clustering c))
        0 clusters
    in
    Format.printf "  color %d: %d clusters, %d nodes@." color
      (List.length clusters) nodes
  done;

  (* One-shot ball carving (Theorem 2.2: Theorem 2.1 over the weak
     carving) is also exposed directly: remove at most an eps fraction of
     the domain's nodes, leave non-adjacent low-diameter components. *)
  let n = Graph.n g in
  let clusters, stats =
    Strongdecomp.Transform.strong_carve
      ~weak:
        (Strongdecomp.Strong_carving.weak_of_preset
           Weakdiam.Weak_carving.default_preset)
      g ~domain:(Array.init n Fun.id) ~epsilon:0.25
  in
  let carving = Cluster.Carving.of_clusters g ~domain:(Mask.full n) clusters in
  Format.printf
    "carving (eps=1/4): %d clusters, dead fraction %.3f, %d halving \
     iterations@."
    (Cluster.Clustering.num_clusters carving.Cluster.Carving.clustering)
    (Cluster.Carving.dead_fraction carving)
    stats.Strongdecomp.Transform.iterations
