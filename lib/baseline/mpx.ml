open Dsgraph

module Pq = Set.Make (struct
  type t = float * int * int

  let compare = compare
end)

(* Node-indexed working memory: the domain is stamped in [st], whose
   [value] holds each node's best center and whose arrays then find the
   survivors' components; the keys are written over the domain before
   they are read. *)
type scratch = {
  st : Stamp.t;
  mutable best_key : float array;
  mutable second_key : float array;
}

let scratch () = { st = Stamp.create (); best_key = [||]; second_key = [||] }

let fit s g =
  Stamp.fit s.st g;
  let n = Graph.n g in
  if Array.length s.best_key < n then begin
    s.best_key <- Array.make n infinity;
    s.second_key <- Array.make n infinity
  end

(* Multi-source Dijkstra on unit edges with fractional (shift) head
   starts, in G[domain]. Leaves per domain node the best (key, center)
   and the second-best key reaching it from a different center; returns
   the largest shift. *)
let shifted_voronoi s rng g ~domain ~beta =
  let best_key = s.best_key and best_center = s.st.value in
  let second_key = s.second_key in
  let inside = Stamp.stamp s.st domain in
  let mem v = s.st.mark.(v) = inside in
  let pq = ref Pq.empty in
  let max_shift = ref 0.0 in
  Array.iter
    (fun u ->
      best_key.(u) <- infinity;
      best_center.(u) <- -1;
      second_key.(u) <- infinity;
      let shift = Rng.exponential rng beta in
      if shift > !max_shift then max_shift := shift;
      pq := Pq.add (-.shift, u, u) !pq)
    domain;
  while not (Pq.is_empty !pq) do
    let ((key, v, center) as elt) = Pq.min_elt !pq in
    pq := Pq.remove elt !pq;
    if best_center.(v) = -1 then begin
      best_key.(v) <- key;
      best_center.(v) <- center;
      Graph.iter_neighbors g v (fun w ->
          if mem w && best_center.(w) = -1 then
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
    Array.iter
      (fun v ->
        Graph.iter_neighbors g v (fun w ->
            if mem w then begin
              let via =
                if best_center.(w) <> best_center.(v) then best_key.(w) +. 1.0
                else second_key.(w) +. 1.0
              in
              if via < second_key.(v) then begin
                second_key.(v) <- via;
                changed := true
              end
            end))
      domain
  done;
  !max_shift

let partition rng g ~beta =
  if beta <= 0.0 then invalid_arg "Mpx.partition: beta must be positive";
  let s = scratch () in
  fit s g;
  let n = Graph.n g in
  ignore (shifted_voronoi s rng g ~domain:(Array.init n Fun.id) ~beta);
  Cluster.Clustering.make g ~cluster_of:(Array.sub s.st.value 0 n)

let carve ?(max_retries = 60) rng : Cluster.Carving.carver =
  let s = scratch () in
  fun ?cost g ~domain ~epsilon ->
    if epsilon <= 0.0 || epsilon >= 1.0 then
      invalid_arg "Mpx.carve: epsilon must be in (0, 1)";
    Cluster.Carving.check_domain "Mpx.carve" g domain;
    fit s g;
    let nd = Array.length domain in
    let beta = epsilon /. 6.0 in
    let rec go k =
      if k >= max_retries then
        failwith "Mpx.carve: retries exhausted (unlucky sampling)";
      let max_shift = shifted_voronoi s rng g ~domain ~beta in
      let survives v = s.second_key.(v) -. s.best_key.(v) > 2.0 in
      let alive = Array.of_seq (Seq.filter survives (Array.to_seq domain)) in
      (match cost with
      | None -> ()
      | Some c ->
          let radius = int_of_float (Float.ceil max_shift) + 2 in
          Congest.Cost.charge c
            ~rounds:((2 * radius) + 4)
            ~messages:nd
            ~max_bits:(3 * Congest.Bits.id_bits ~n:(Graph.n g))
            "mpx.carve");
      let dead = nd - Array.length alive in
      if nd > 0 && float_of_int dead /. float_of_int nd > epsilon then
        go (k + 1)
      else
        (* surviving parts of a cluster may have split: emit components *)
        Stamp.components s.st g alive ~inside:(Stamp.stamp s.st alive)
    in
    go 0

let decompose ?cost rng g = Strongdecomp.Netdecomp.of_carver ?cost (carve rng) g
