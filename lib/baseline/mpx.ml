open Dsgraph

(* Multi-source Dijkstra on unit edges with fractional (shift) head
   starts. Returns per node the best (key, center) and the second-best key
   reaching it from a different center. *)
let shifted_voronoi rng g ~domain ~beta =
  let n = Graph.n g in
  let best_key = Array.make n infinity in
  let best_center = Array.make n (-1) in
  let second_key = Array.make n infinity in
  (* heap of (key, node, center) as a sorted set *)
  let module Pq = Set.Make (struct
    type t = float * int * int

    let compare = compare
  end) in
  let pq = ref Pq.empty in
  let max_shift = ref 0.0 in
  Mask.iter domain (fun u ->
      let shift = Rng.exponential rng beta in
      if shift > !max_shift then max_shift := shift;
      pq := Pq.add (-.shift, u, u) !pq);
  while not (Pq.is_empty !pq) do
    let ((key, v, center) as elt) = Pq.min_elt !pq in
    pq := Pq.remove elt !pq;
    if best_center.(v) = -1 then begin
      best_key.(v) <- key;
      best_center.(v) <- center;
      Graph.iter_neighbors g v (fun w ->
          if Mask.mem domain w && best_center.(w) = -1 then
            pq := Pq.add (key +. 1.0, w, center) !pq)
    end
    else if center <> best_center.(v) && key < second_key.(v) then begin
      second_key.(v) <- key
      (* do not relax further: one extra layer of propagation below *)
    end
  done;
  (* The pruned Dijkstra above only records second-best keys arriving at
     the frontier; propagate one relaxation sweep so that every node knows
     a 2-hop-accurate second-best estimate, which is what the gap <= 2
     kill rule needs. *)
  let changed = ref true in
  let guard = ref 0 in
  while !changed && !guard < 4 do
    incr guard;
    changed := false;
    Mask.iter domain (fun v ->
        Graph.iter_neighbors g v (fun w ->
            if Mask.mem domain w then begin
              let via =
                if best_center.(w) <> best_center.(v) then best_key.(w) +. 1.0
                else second_key.(w) +. 1.0
              in
              if via < second_key.(v) then begin
                second_key.(v) <- via;
                changed := true
              end
            end))
  done;
  (best_key, best_center, second_key, !max_shift)

let partition rng ?domain g ~beta =
  if beta <= 0.0 then invalid_arg "Mpx.partition: beta must be positive";
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n in
  let _, best_center, _, _ = shifted_voronoi rng g ~domain ~beta in
  Cluster.Clustering.make g ~cluster_of:best_center

let carve ?cost ?(max_retries = 60) rng ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Mpx.carve: epsilon must be in (0, 1)";
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n in
  let beta = epsilon /. 6.0 in
  let rec go k =
    if k >= max_retries then
      failwith "Mpx.carve: retries exhausted (unlucky sampling)";
    let best_key, best_center, second_key, max_shift =
      shifted_voronoi rng g ~domain ~beta
    in
    let survivor = Array.make n (-1) in
    Mask.iter domain (fun v ->
        if second_key.(v) -. best_key.(v) > 2.0 then
          survivor.(v) <- best_center.(v));
    (* surviving parts of a cluster may have split: emit components *)
    let alive = Mask.empty n in
    Mask.iter domain (fun v -> if survivor.(v) >= 0 then Mask.add alive v);
    let comp_ids, _ = Components.component_ids ~mask:alive g in
    let clustering = Cluster.Clustering.make g ~cluster_of:comp_ids in
    let carving = Cluster.Carving.make clustering ~domain in
    (match cost with
    | None -> ()
    | Some c ->
        let radius = int_of_float (Float.ceil max_shift) + 2 in
        Congest.Cost.charge c
          ~rounds:((2 * radius) + 4)
          ~messages:(Mask.count domain)
          ~max_bits:(3 * Congest.Bits.id_bits ~n)
          "mpx.carve");
    if Cluster.Carving.dead_fraction carving <= epsilon then carving
    else go (k + 1)
  in
  go 0

let decompose ?cost rng g =
  let carver ?cost ?domain g ~epsilon = carve ?cost rng ?domain g ~epsilon in
  Strongdecomp.Netdecomp.(of_carver ?cost (of_mask_carver carver) g)
