open Dsgraph

type preset = Ls93_existential | Aglp | Gha19

let beta_of_preset preset ~n =
  let logn = Float.max 1.0 (log (float_of_int (max n 2)) /. log 2.0) in
  match preset with
  | Ls93_existential -> 2.0
  | Aglp -> Float.max 2.0 (2.0 ** sqrt (logn *. Float.max 1.0 (log logn /. log 2.0)))
  | Gha19 -> Float.max 2.0 (2.0 ** sqrt logn)

let carve ?cost ?beta ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Greedy.carve: epsilon must be in (0, 1)";
  let beta = match beta with Some b -> b | None -> 1.0 /. (1.0 -. epsilon) in
  if beta <= 1.0 then invalid_arg "Greedy.carve: beta must exceed 1";
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n in
  (* The remaining nodes are the class [owner.(v) = 0] of the layer
     steps; a node leaves it when it is carved or postponed. [volume]
     is their total degree: what a pull step could still read. *)
  let owner = Array.init n (fun v -> if Mask.mem domain v then 0 else -1) in
  let left = ref (Mask.count domain) in
  let volume = ref 0 in
  Mask.iter domain (fun v -> volume := !volume + Graph.degree g v);
  let cluster_of = Array.make n (-1) in
  let next_cluster = ref 0 in
  (* Reusable BFS scratch: only the cells listed in [queue] are ever
     non-(-1), and each iteration resets exactly those — so carving a
     region costs its volume, not O(n), and 10^5 singleton components
     cost 10^5 steps rather than 10^11. *)
  let s = Bfs.scratch n in
  (* The smallest remaining id is monotone (nodes are only ever removed),
     so a cursor replaces the per-cluster Mask.to_list scan that made
     center selection O(n). *)
  let cursor = ref 0 in
  while !left > 0 do
    while owner.(!cursor) <> 0 do
      incr cursor
    done;
    let center = !cursor in
    (* Grow one layer at a time: layer r is queue.(lo .. hi-1), so
       ball(r) = hi, and the step appends layer r+1, so ball(r+1) = the
       new tail. Stop at the first r with ball(r+1) <= beta * ball(r); an
       empty layer r+1 (r = the center's eccentricity) always stops it.
       Layers past r+1 never affect the output, so they are never
       searched. A pull step's candidates are the ids center .. n-1,
       which hold every remaining node. *)
    let rec grow r lo hi frontier explored =
      let tail =
        Bfs.step g ~owner ~id:0 s ~lo ~hi ~frontier
          ~unexplored:(!volume - explored)
          ~first:center ~last:n
      in
      if float_of_int tail <= beta *. float_of_int hi then (r, hi, tail)
      else
        let next = Bfs.volume g s ~lo:hi ~hi:tail in
        grow (r + 1) hi tail next (explored + next)
    in
    Bfs.start s center;
    let d = Graph.degree g center in
    let r, inner, outer = grow 0 0 1 d d in
    (match cost with
    | None -> ()
    | Some c ->
        Congest.Cost.charge c ~rounds:(r + 2) ~messages:outer
          ~max_bits:(2 * Congest.Bits.id_bits ~n) "greedy.grow");
    let id = !next_cluster in
    incr next_cluster;
    for i = 0 to outer - 1 do
      let v = s.Bfs.queue.(i) in
      if i < inner then cluster_of.(v) <- id;
      owner.(v) <- -1;
      volume := !volume - Graph.degree g v
    done;
    left := !left - outer;
    Bfs.release s outer
  done;
  let clustering = Cluster.Clustering.make g ~cluster_of in
  Cluster.Carving.make clustering ~domain

let decompose ?cost ?(preset = Ls93_existential) g =
  let beta = beta_of_preset preset ~n:(Graph.n g) in
  let epsilon = 1.0 -. (1.0 /. beta) in
  let epsilon = Float.min 0.9 (Float.max 0.25 epsilon) in
  let carver ?cost ?domain g ~epsilon = carve ?cost ~beta ?domain g ~epsilon in
  Strongdecomp.Netdecomp.of_carver ?cost ~epsilon carver g
