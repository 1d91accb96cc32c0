open Dsgraph

let max_radius ~n ~epsilon =
  let nf = float_of_int (max n 2) in
  max 2 (int_of_float (Float.ceil (2.0 *. log nf /. epsilon)))

let attempt rng g ~domain ~epsilon =
  let n = Graph.n g in
  let cap = max_radius ~n:(Mask.count domain) ~epsilon in
  (* winner.(v) = (priority u, r_u - dist(v,u)) with the largest priority;
     slack >= 1 means interior, slack = 0 means boundary *)
  let winner = Array.make n None in
  let max_r = ref 0 in
  (* truncated BFS per center: total work is the sum of sampled ball
     sizes, which is O(n/ε) in expectation rather than O(n·m) *)
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  Mask.iter domain (fun u ->
      let r = min cap (Rng.geometric rng epsilon) in
      if r > !max_r then max_r := r;
      let touched = ref [ u ] in
      dist.(u) <- 0;
      Queue.add u queue;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        (let slack = r - dist.(v) in
         match winner.(v) with
         | Some (u', _) when u' > u -> ()
         | _ -> winner.(v) <- Some (u, slack));
        if dist.(v) < r then
          Graph.iter_neighbors g v (fun w ->
              if Mask.mem domain w && dist.(w) = -1 then begin
                dist.(w) <- dist.(v) + 1;
                touched := w :: !touched;
                Queue.add w queue
              end)
      done;
      List.iter (fun v -> dist.(v) <- -1) !touched);
  let cluster_of = Array.make n (-1) in
  Mask.iter domain (fun v ->
      match winner.(v) with
      | Some (u, slack) when slack >= 1 -> cluster_of.(v) <- u
      | _ -> ());
  (cluster_of, !max_r)

let carve ?cost ?(max_retries = 60) rng ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Linial_saks.carve: epsilon must be in (0, 1)";
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n in
  let rec go k =
    if k >= max_retries then
      failwith "Linial_saks.carve: retries exhausted (unlucky sampling)";
    let cluster_of, max_r = attempt rng g ~domain ~epsilon in
    let clustering = Cluster.Clustering.make g ~cluster_of in
    let carving = Cluster.Carving.make clustering ~domain in
    (* distributed implementation: radius-capped priority flooding, one
       wave out and one wave back *)
    (match cost with
    | None -> ()
    | Some c ->
        Congest.Cost.charge c
          ~rounds:((2 * max_r) + 2)
          ~messages:(Mask.count domain)
          ~max_bits:(2 * Congest.Bits.id_bits ~n)
          "linial_saks.carve");
    if Cluster.Carving.dead_fraction carving <= epsilon then carving
    else go (k + 1)
  in
  go 0

let decompose ?cost rng g =
  let carver ?cost ?domain g ~epsilon = carve ?cost rng ?domain g ~epsilon in
  Strongdecomp.Netdecomp.(of_carver ?cost (of_mask_carver carver) g)

(* Shortest-path Steiner tree from center [u] covering [members], built
   from a truncated BFS in G[domain]; paths may leave the cluster. *)
let steiner_tree g ~domain ~center ~members ~radius =
  let parent = ref [] in
  let seen = Hashtbl.create 64 in
  let bfs_parent = Hashtbl.create 64 in
  let dist = Hashtbl.create 64 in
  let queue = Queue.create () in
  Hashtbl.replace dist center 0;
  Queue.add center queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let dv = Hashtbl.find dist v in
    if dv < radius then
      Graph.iter_neighbors g v (fun w ->
          if Mask.mem domain w && not (Hashtbl.mem dist w) then begin
            Hashtbl.replace dist w (dv + 1);
            Hashtbl.replace bfs_parent w v;
            Queue.add w queue
          end)
  done;
  let add v p =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.replace seen v ();
      parent := (v, p) :: !parent
    end
  in
  add center center;
  List.iter
    (fun m ->
      (* walk the BFS chain from the member back to the center *)
      let rec walk v =
        if not (Hashtbl.mem seen v) then begin
          let p = Hashtbl.find bfs_parent v in
          add v p;
          walk p
        end
      in
      if m <> center then walk m)
    members;
  { Cluster.Steiner.root = center; parent = !parent }

let carve_with_trees ?cost ?(max_retries = 60) rng ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Linial_saks.carve_with_trees: epsilon must be in (0, 1)";
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n in
  let cap = max_radius ~n:(Mask.count domain) ~epsilon in
  let rec go k =
    if k >= max_retries then
      failwith "Linial_saks.carve_with_trees: retries exhausted";
    let cluster_of, max_r = attempt rng g ~domain ~epsilon in
    (match cost with
    | None -> ()
    | Some c ->
        Congest.Cost.charge c
          ~rounds:((2 * max_r) + 2)
          ~messages:(Mask.count domain)
          ~max_bits:(2 * Congest.Bits.id_bits ~n)
          "linial_saks.carve");
    (* group members by center, preserving first-appearance order so the
       forest indexing matches [Clustering.make]'s normalization *)
    let members : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    let centers_in_order = ref [] in
    for v = 0 to n - 1 do
      let u = cluster_of.(v) in
      if u >= 0 then
        match Hashtbl.find_opt members u with
        | Some l -> l := v :: !l
        | None ->
            Hashtbl.replace members u (ref [ v ]);
            centers_in_order := u :: !centers_in_order
    done;
    let centers = Array.of_list (List.rev !centers_in_order) in
    let clustering = Cluster.Clustering.make g ~cluster_of in
    let carving = Cluster.Carving.make clustering ~domain in
    if Cluster.Carving.dead_fraction carving > epsilon then go (k + 1)
    else
      let forest =
        Array.map
          (fun u ->
            steiner_tree g ~domain ~center:u
              ~members:!(Hashtbl.find members u)
              ~radius:cap)
          centers
      in
      (carving, forest)
  in
  go 0

let weak_carver rng : Strongdecomp.Transform.weak_carver =
 fun ?cost g ~domain ~epsilon ->
  let domain = Mask.of_list (Graph.n g) (Array.to_list domain) in
  let carving, forest = carve_with_trees ?cost rng ~domain g ~epsilon in
  let depth =
    Array.fold_left (fun acc t -> max acc (Cluster.Steiner.depth t)) 0 forest
  in
  let congestion = Cluster.Steiner.congestion g forest in
  {
    Strongdecomp.Transform.clusters =
      Array.of_list
        (List.map Array.of_list
           (Cluster.Clustering.clusters carving.Cluster.Carving.clustering));
    roots = Array.map (fun t -> t.Cluster.Steiner.root) forest;
    depth;
    congestion;
  }
