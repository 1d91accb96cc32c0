(* A tour of every ball-carving algorithm in the repository on one graph:
   the two weak-diameter engines (RG20, GGR21), the randomized baselines
   (Linial–Saks, MPX), the paper's strong-diameter transformations
   (Theorems 2.2 and 3.3), the big-message ABCP96 foil, and the edge
   version. Prints the measured (diameter, dead fraction, rounds, message
   bits) so the trade-offs are visible side by side.

   Run with:  dune exec examples/carving_tour.exe *)

open Dsgraph

let line name ~kind carving cost =
  let clustering = carving.Cluster.Carving.clustering in
  let sd = Cluster.Clustering.max_strong_diameter clustering in
  let wd = Cluster.Clustering.max_weak_diameter clustering in
  Format.printf "%-24s %-6s sDiam=%-4d wDiam=%-4d dead=%4.1f%% rounds=%-9d maxbits=%d@."
    name kind sd wd
    (100.0 *. Cluster.Carving.dead_fraction carving)
    (Congest.Cost.rounds cost)
    (Congest.Cost.max_message_bits cost)

let () =
  let g = Gen.grid 20 20 in
  let epsilon = 0.25 in
  Format.printf "graph: %a, epsilon = %.2f@.@." Graph.pp g epsilon;

  let meter f =
    let cost = Congest.Cost.create () in
    let r = f cost in
    (r, cost)
  in
  let n = Graph.n g in
  let all = Array.init n Fun.id in
  let carving = Cluster.Carving.of_clusters g ~domain:(Mask.full n) in

  (* weak-diameter engines: clusters may induce disconnected subgraphs but
     carry shallow Steiner trees *)
  let r, cost =
    meter (fun cost ->
        Weakdiam.Weak_carving.carve ~preset:Weakdiam.Weak_carving.Rg20 ~cost g
          ~epsilon)
  in
  line "weak RG20" ~kind:"weak" r.Weakdiam.Weak_carving.carving cost;
  Format.printf "%-24s        steiner depth=%d congestion=%d steps=%d@." ""
    r.max_depth r.congestion r.steps;
  let r, cost =
    meter (fun cost -> Weakdiam.Weak_carving.carve ~cost g ~epsilon)
  in
  line "weak GGR21" ~kind:"weak" r.Weakdiam.Weak_carving.carving cost;

  (* randomized baselines *)
  let c, cost =
    meter (fun cost ->
        Cluster.Carving.of_carver ~cost
          (Baseline.Linial_saks.carve (Rng.create 5))
          g ~epsilon)
  in
  line "Linial-Saks (rand)" ~kind:"weak" c cost;
  let c, cost =
    meter (fun cost ->
        Cluster.Carving.of_carver ~cost (Baseline.Mpx.carve (Rng.create 5)) g
          ~epsilon)
  in
  line "MPX/EN16 (rand)" ~kind:"strong" c cost;

  (* the paper *)
  let (c, stats), cost =
    meter (fun cost ->
        Strongdecomp.Transform.strong_carve ~cost
          ~weak:
            (Strongdecomp.Strong_carving.weak_of_preset
               Weakdiam.Weak_carving.default_preset)
          g ~domain:all ~epsilon)
  in
  line "Theorem 2.2" ~kind:"strong" (carving c) cost;
  Format.printf "%-24s        halving iterations=%d weak invocations=%d@." ""
    stats.Strongdecomp.Transform.iterations
    stats.Strongdecomp.Transform.weak_invocations;
  let (c, stats), cost =
    meter (fun cost ->
        Strongdecomp.Improve.improve
          ~strong:(Strongdecomp.Strong_carving.carve ())
          ~cost g ~domain:all ~epsilon)
  in
  line "Theorem 3.3" ~kind:"strong" (carving c) cost;
  Format.printf "%-24s        levels=%d cuts=%d components=%d@." ""
    stats.Strongdecomp.Improve.levels stats.Strongdecomp.Improve.cuts_taken
    stats.Strongdecomp.Improve.components_taken;

  (* the big-message foil *)
  let (c, info), cost =
    meter (fun cost -> Baseline.Abcp.carve ~cost g ~domain:all ~epsilon)
  in
  line "ABCP96 (big messages)" ~kind:"strong" (carving c) cost;
  Format.printf "%-24s        gathered-topology message: %d bits (bandwidth %d)@."
    "" info.Baseline.Abcp.max_message_bits
    (Congest.Bits.bandwidth ~n:(Graph.n g));

  (* the greedy sequential comparator *)
  let c, cost =
    meter (fun cost ->
        Cluster.Carving.of_carver ~cost
          (fun ?cost g -> Baseline.Greedy.carve ?cost g)
          g ~epsilon)
  in
  line "greedy (sequential)" ~kind:"strong" c cost;

  (* edge version *)
  let r, cost =
    meter (fun cost -> Strongdecomp.Edge_carving.carve ~cost g ~epsilon)
  in
  Format.printf "%-24s %-6s cut %d/%d edges, %d clusters, max radius %d, rounds=%d@."
    "edge version" "edge"
    (List.length r.Strongdecomp.Edge_carving.cut_edges)
    (Graph.m g)
    (Cluster.Clustering.num_clusters r.Strongdecomp.Edge_carving.clustering)
    r.Strongdecomp.Edge_carving.max_radius
    (Congest.Cost.rounds cost)
