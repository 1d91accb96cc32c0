open Dsgraph

type info = { max_message_bits : int; power_colors : int; rounds : int }

(* BFS over the alive nodes (alive.(v) = a) from the sources
   queue.(0 .. tail-1), already stamped [b]: appends every alive node
   within [radius] hops, layer by layer, and returns how many it holds,
   twice. With [growth], it ends after the first layer r + 1 with
   |B_{r+1}| <= growth·|B_r| (an empty layer always ends it) and returns
   (|B_r|, |B_{r+1}|). *)
let search g ~alive ~a ~visit ~b ~queue ?growth ~radius tail =
  let offsets = Graph.offsets g and targets = Graph.targets g in
  let rec layer lo hi r =
    if r >= radius || lo = hi then (hi, hi)
    else begin
      let tail = ref hi in
      for j = lo to hi - 1 do
        let x = queue.(j) in
        for i = offsets.{x} to offsets.{x + 1} - 1 do
          let w = targets.{i} in
          if alive.(w) = a && visit.(w) <> b then begin
            visit.(w) <- b;
            queue.(!tail) <- w;
            incr tail
          end
        done
      done;
      match growth with
      | Some growth when float_of_int !tail <= growth *. float_of_int hi ->
          (hi, !tail)
      | _ -> layer hi !tail (r + 1)
    end
  in
  layer 0 tail 0

(* Edges of G with both endpoints among queue.(0 .. k-1), the nodes
   stamped [b]. *)
let edges_within g ~visit ~b ~queue k =
  let arcs = ref 0 in
  for j = 0 to k - 1 do
    Graph.iter_neighbors g queue.(j) (fun y -> if visit.(y) = b then incr arcs)
  done;
  !arcs / 2

let carve ?cost g ~domain ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Abcp.carve: epsilon must be in (0, 1)";
  Cluster.Carving.check_domain "Abcp.carve" g domain;
  let n = Graph.n g in
  let nd = Array.length domain in
  let d = Congest.Bits.id_bits ~n:(max 2 nd) in
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
      ~domain power
  in
  let clustering = Cluster.Decomposition.clustering decomp in
  let colors = Cluster.Decomposition.num_colors decomp in
  let growth = 1.0 /. (1.0 -. epsilon) in
  (* the alive nodes carry [a]; every search gets a fresh stamp [b] *)
  let alive = Array.make n 0 and a = 1 in
  Array.iter (fun v -> alive.(v) <- a) domain;
  let visit = Array.make n 0 and queue = Array.make n 0 and b = ref 0 in
  let start sources =
    incr b;
    List.fold_left
      (fun k v ->
        visit.(v) <- !b;
        queue.(k) <- v;
        k + 1)
      0 sources
  in
  let search = search g ~alive ~a ~visit ~queue in
  let clusters = ref [] in
  let max_bits = ref 0 in
  let rounds = ref 0 in
  (* the topology within [radius] of [sources], sent in one message *)
  let gather sources ~radius =
    let tail = start sources in
    let _, k = search ~b:!b ~radius tail in
    let bits = (2 + edges_within g ~visit ~b:!b ~queue k) * 2 * id_bits in
    if bits > !max_bits then max_bits := bits
  in
  (* power-graph construction: every node learns its 2d-ball topology *)
  Array.iter (fun v -> gather [ v ] ~radius:(2 * d)) domain;
  rounds := !rounds + (2 * d);
  for color = 0 to colors - 1 do
    (* clusters of one color are processed simultaneously; their gathered
       regions (cluster + d-hop neighborhood) are disjoint *)
    let round_this_color = ref 0 in
    List.iter
      (fun c ->
        let members =
          List.filter
            (fun v -> alive.(v) = a)
            (Cluster.Clustering.members clustering c)
        in
        if members <> [] then begin
          (* gather: cluster plus d-hop neighborhood, topology to center *)
          gather members ~radius:d;
          round_this_color := max !round_this_color (2 * d);
          (* centralized sequential carving inside the gathered region:
             from each still-alive member, the smallest r with
             |B_{r+1}| <= |B_r|/(1-ε) (or the eccentricity); B_r is a
             cluster and the next layer dies *)
          List.iter
            (fun v ->
              if alive.(v) = a then begin
                let tail = start [ v ] in
                let inner, outer =
                  search ~b:!b ~growth ~radius:max_int tail
                in
                clusters := Array.sub queue 0 inner :: !clusters;
                for j = 0 to outer - 1 do
                  alive.(queue.(j)) <- 0
                done
              end)
            members
        end)
      (Cluster.Decomposition.clusters_of_color decomp color);
    rounds := !rounds + !round_this_color + 1
  done;
  (match cost with
  | None -> ()
  | Some c ->
      Congest.Cost.charge c ~rounds:!rounds ~messages:nd ~max_bits:!max_bits
        "abcp.carve");
  ( Array.of_list !clusters,
    { max_message_bits = !max_bits; power_colors = colors; rounds = !rounds } )

let decompose ?cost g =
  let acc = ref { max_message_bits = 0; power_colors = 0; rounds = 0 } in
  let carver ?cost g ~domain ~epsilon =
    let clusters, info = carve ?cost g ~domain ~epsilon in
    acc :=
      {
        max_message_bits = max !acc.max_message_bits info.max_message_bits;
        power_colors = max !acc.power_colors info.power_colors;
        rounds = !acc.rounds + info.rounds;
      };
    clusters
  in
  let d = Strongdecomp.Netdecomp.of_carver ?cost carver g in
  (d, !acc)
