open Dsgraph

type info = { max_message_bits : int; power_colors : int; rounds : int }

let log2_ceil n =
  let rec go acc k = if k >= n then acc else go (acc + 1) (2 * k) in
  max 1 (go 0 1)

(* edges of G with both endpoints in the given node set *)
let edges_within g set =
  let mask = Mask.of_list (Graph.n g) set in
  Graph.fold_edges g ~init:0 ~f:(fun acc u v ->
      if Mask.mem mask u && Mask.mem mask v then acc + 1 else acc)

let carve ?cost ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Abcp.carve: epsilon must be in (0, 1)";
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n in
  let d = log2_ceil (max 2 (Mask.count domain)) in
  let id_bits = Congest.Bits.id_bits ~n in
  (* Weak-diameter decomposition of the power graph G^{2d} restricted to
     the domain. Building G^{2d} itself needs big messages in CONGEST;
     we account for it below. *)
  let power = Power.power g (2 * d) in
  let decomp =
    let scratch = Weakdiam.Weak_carving.scratch () in
    Strongdecomp.Netdecomp.of_carver
      (fun ?cost:_ g ~domain ~epsilon ->
        (Weakdiam.Weak_carving.carve_local ~scratch g ~domain ~epsilon)
          .members)
      ~domain:(Mask.to_array domain) power
  in
  let clustering = Cluster.Decomposition.clustering decomp in
  let colors = Cluster.Decomposition.num_colors decomp in
  let growth = 1.0 /. (1.0 -. epsilon) in
  let alive = Mask.copy domain in
  let output = Array.make n (-1) in
  let next_cluster = ref 0 in
  let max_bits = ref 0 in
  let rounds = ref 0 in
  (* power-graph construction: every node learns its 2d-ball topology *)
  Mask.iter domain (fun v ->
      let ball = Bfs.ball ~mask:domain g ~center:v ~radius:(2 * d) in
      let bits = (2 + edges_within g ball) * 2 * id_bits in
      if bits > !max_bits then max_bits := bits);
  rounds := !rounds + (2 * d);
  for color = 0 to colors - 1 do
    (* clusters of one color are processed simultaneously; their gathered
       regions (cluster + d-hop neighborhood) are disjoint *)
    let round_this_color = ref 0 in
    List.iter
      (fun c ->
        let members =
          List.filter
            (fun v -> Mask.mem alive v)
            (Cluster.Clustering.members clustering c)
        in
        if members <> [] then begin
          (* gather: cluster plus d-hop neighborhood, topology to center *)
          let region = Bfs.multi_distances ~mask:alive g ~sources:members in
          let region_nodes =
            List.filter
              (fun v -> region.(v) >= 0 && region.(v) <= d)
              (Graph.nodes g)
          in
          let bits = (2 + edges_within g region_nodes) * 2 * id_bits in
          if bits > !max_bits then max_bits := bits;
          round_this_color := max !round_this_color (2 * d);
          (* centralized sequential carving inside the gathered region *)
          let pending = ref members in
          while
            match !pending with
            | [] -> false
            | v :: rest ->
                if not (Mask.mem alive v) then begin
                  pending := rest;
                  true
                end
                else begin
                  let dist = Bfs.distances ~mask:alive g ~source:v in
                  let maxd_local = Array.fold_left max 0 dist in
                  let cum = Array.make (maxd_local + 1) 0 in
                  Array.iter
                    (fun x -> if x >= 0 then cum.(x) <- cum.(x) + 1)
                    dist;
                  for k = 1 to maxd_local do
                    cum.(k) <- cum.(k) + cum.(k - 1)
                  done;
                  let ball r = if r > maxd_local then cum.(maxd_local) else cum.(r) in
                  let rec find r =
                    if r >= maxd_local then maxd_local
                    else if
                      float_of_int (ball (r + 1))
                      <= growth *. float_of_int (ball r)
                    then r
                    else find (r + 1)
                  in
                  let r = find 0 in
                  let id = !next_cluster in
                  incr next_cluster;
                  for w = 0 to n - 1 do
                    if dist.(w) >= 0 && dist.(w) <= r then begin
                      output.(w) <- id;
                      Mask.remove alive w
                    end
                    else if dist.(w) = r + 1 then Mask.remove alive w
                  done;
                  pending := rest;
                  true
                end
          do
            ()
          done
        end)
      (Cluster.Decomposition.clusters_of_color decomp color);
    rounds := !rounds + !round_this_color + 1
  done;
  (match cost with
  | None -> ()
  | Some c ->
      Congest.Cost.charge c ~rounds:!rounds ~messages:(Mask.count domain)
        ~max_bits:!max_bits "abcp.carve");
  let out_clustering = Cluster.Clustering.make g ~cluster_of:output in
  let carving = Cluster.Carving.make out_clustering ~domain in
  ( carving,
    { max_message_bits = !max_bits; power_colors = colors; rounds = !rounds } )

let decompose ?cost g =
  let acc = ref { max_message_bits = 0; power_colors = 0; rounds = 0 } in
  let carver ?cost ?domain g ~epsilon =
    let carving, info = carve ?cost ?domain g ~epsilon in
    acc :=
      {
        max_message_bits = max !acc.max_message_bits info.max_message_bits;
        power_colors = max !acc.power_colors info.power_colors;
        rounds = !acc.rounds + info.rounds;
      };
    carving
  in
  let d = Strongdecomp.Netdecomp.(of_carver ?cost (of_mask_carver carver) g) in
  (d, !acc)
