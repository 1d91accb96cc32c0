(* Test-only oracle: the greedy ball grower that lib/baseline/greedy.ml
   implemented before its layer-by-layer rewrite, kept as it was — one
   BFS of the whole remaining component from every center, then a scan
   of the cumulative layer sizes — so the equivalence property in
   test_baseline.ml can diff the two. The scratch BFS it used (the
   library's former [Bfs.distances_into]) is inlined below. *)

open Dsgraph

(* Allocation-free BFS into caller-owned scratch: [dist] cells listed in
   the returned prefix of [queue] are set, all others stay [-1]. *)
let distances_into ~mask g ~source ~dist ~queue =
  if not (Mask.mem mask source) then 0
  else begin
    dist.(source) <- 0;
    queue.(0) <- source;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let du = dist.(u) in
      Graph.iter_neighbors g u (fun v ->
          if Mask.mem mask v && dist.(v) = -1 then begin
            dist.(v) <- du + 1;
            queue.(!tail) <- v;
            incr tail
          end)
    done;
    !tail
  end

let carve ?cost ?beta ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Greedy.carve: epsilon must be in (0, 1)";
  let beta = match beta with Some b -> b | None -> 1.0 /. (1.0 -. epsilon) in
  if beta <= 1.0 then invalid_arg "Greedy.carve: beta must exceed 1";
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n in
  let remaining = Mask.copy domain in
  let cluster_of = Array.make n (-1) in
  let next_cluster = ref 0 in
  let dist = Array.make (max 1 n) (-1) in
  let queue = Array.make (max 1 n) 0 in
  let cursor = ref 0 in
  while Mask.count remaining > 0 do
    while not (Mask.mem remaining !cursor) do
      incr cursor
    done;
    let center = !cursor in
    let count = distances_into ~mask:remaining g ~source:center ~dist ~queue in
    let maxd = dist.(queue.(count - 1)) in
    let cum = Array.make (maxd + 1) 0 in
    for i = 0 to count - 1 do
      let d = dist.(queue.(i)) in
      cum.(d) <- cum.(d) + 1
    done;
    for k = 1 to maxd do
      cum.(k) <- cum.(k) + cum.(k - 1)
    done;
    let ball r = if r > maxd then cum.(maxd) else cum.(r) in
    let rec find r =
      if r >= maxd then maxd
      else if float_of_int (ball (r + 1)) <= beta *. float_of_int (ball r) then r
      else find (r + 1)
    in
    let r = find 0 in
    (match cost with
    | None -> ()
    | Some c ->
        Congest.Cost.charge c ~rounds:(r + 2) ~messages:(ball (r + 1))
          ~max_bits:(2 * Congest.Bits.id_bits ~n) "greedy.grow");
    let id = !next_cluster in
    incr next_cluster;
    for i = 0 to count - 1 do
      let v = queue.(i) in
      let d = dist.(v) in
      if d <= r then begin
        cluster_of.(v) <- id;
        Mask.remove remaining v
      end
      else if d = r + 1 then Mask.remove remaining v;
      dist.(v) <- -1
    done
  done;
  let clustering = Cluster.Clustering.make g ~cluster_of in
  Cluster.Carving.make clustering ~domain

let decompose ?cost ?(preset = Baseline.Greedy.Ls93_existential) g =
  let beta = Baseline.Greedy.beta_of_preset preset ~n:(Graph.n g) in
  let epsilon = 1.0 -. (1.0 /. beta) in
  let epsilon = Float.min 0.9 (Float.max 0.25 epsilon) in
  let carver ?cost ?domain g ~epsilon = carve ?cost ~beta ?domain g ~epsilon in
  Strongdecomp.Netdecomp.(of_carver ?cost ~epsilon (of_mask_carver carver) g)
