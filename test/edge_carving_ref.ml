(* Test-only oracle: [Strongdecomp.Edge_carving.carve] as it was before
   each ball came to cost what it reaches, kept verbatim: every ball
   runs a whole-graph [Bfs.distances], two [Graph.iter_edges] passes and
   an n-node scan, and finds its center with [Mask.to_list]. It returns
   the library's [result] type, so test_core.ml compares the two
   carvings field by field. *)

open Dsgraph
open Strongdecomp.Edge_carving

let carve ?cost ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Edge_carving.carve: epsilon must be in (0, 1)";
  let n = Graph.n g in
  let remaining =
    match domain with
    | None -> Mask.full n
    | Some d ->
        Cluster.Carving.check_domain "Edge_carving.carve" g d;
        let m = Mask.empty n in
        Array.iter (Mask.add m) d;
        m
  in
  let cluster_of = Array.make n (-1) in
  let cut = ref [] in
  let next_cluster = ref 0 in
  let max_radius = ref 0 in
  let charge rounds =
    match cost with
    | None -> ()
    | Some c ->
        Congest.Cost.charge c ~rounds ~messages:(Mask.count remaining)
          ~max_bits:(2 * Congest.Bits.id_bits ~n) "edge_carving.grow"
  in
  while Mask.count remaining > 0 do
    let center = List.hd (Mask.to_list remaining) in
    let dist = Bfs.distances ~mask:remaining g ~source:center in
    (* inside.(r) = edges with both endpoints within distance r;
       boundary.(r) = edges from distance <= r to distance r+1 *)
    let maxd = Array.fold_left max 0 dist in
    let inside = Array.make (maxd + 2) 0 in
    let boundary = Array.make (maxd + 2) 0 in
    Graph.iter_edges g (fun u v ->
        if dist.(u) >= 0 && dist.(v) >= 0 then begin
          let lo = min dist.(u) dist.(v) and hi = max dist.(u) dist.(v) in
          if hi = lo then inside.(lo) <- inside.(lo) + 1
          else begin
            (* hi = lo + 1 *)
            inside.(hi) <- inside.(hi) + 1;
            boundary.(lo) <- boundary.(lo) + 1
          end
        end);
    for r = 1 to maxd + 1 do
      inside.(r) <- inside.(r) + inside.(r - 1)
    done;
    let rec find r =
      if r > maxd then maxd
      else if
        float_of_int boundary.(r) <= epsilon *. float_of_int (inside.(r) + 1)
      then r
      else find (r + 1)
    in
    let r = find 0 in
    if r > !max_radius then max_radius := r;
    charge (r + 2);
    let id = !next_cluster in
    incr next_cluster;
    for v = 0 to n - 1 do
      if dist.(v) >= 0 && dist.(v) <= r then begin
        cluster_of.(v) <- id;
        Mask.remove remaining v
      end
    done;
    (* cut the boundary edges of the carved ball *)
    Graph.iter_edges g (fun u v ->
        if
          (dist.(u) >= 0 && dist.(v) >= 0)
          && min dist.(u) dist.(v) = r
          && max dist.(u) dist.(v) = r + 1
        then cut := (u, v) :: !cut)
  done;
  {
    clustering = Cluster.Clustering.make g ~cluster_of;
    cut_edges = !cut;
    max_radius = !max_radius;
  }
