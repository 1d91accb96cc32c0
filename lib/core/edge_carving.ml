open Dsgraph

type result = {
  clustering : Cluster.Clustering.t;
  cut_edges : (int * int) list;
  max_radius : int;
}

(* Each ball is a BFS from the smallest remaining node over the
   remaining nodes, grown one layer at a time, so it costs the volume it
   reaches. Scanning layer [d] finds layer [d + 1] and counts the edges
   inside layer [d] and from it to layer [d + 1]; once that scan is done
   the edges with both ends within distance [d] are all counted, so the
   first radius the test accepts is known without the rest of the
   component. [dist] is reset on the nodes each ball reached, and the
   center is found by a cursor that only moves up. *)
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
  let offsets = Graph.offsets g and targets = Graph.targets g in
  let cluster_of = Array.make n (-1) in
  let dist = Array.make n (-1) and queue = Array.make (max 1 n) 0 in
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
  let center = ref 0 in
  while Mask.count remaining > 0 do
    while not (Mask.mem remaining !center) do
      incr center
    done;
    dist.(!center) <- 0;
    queue.(0) <- !center;
    (* layer d is queue.(lo .. hi - 1); the scan appends layer d + 1 up
       to [tail]. [inside] counts the edges with both ends within
       distance d, less those inside layer d until its scan adds them. *)
    let lo = ref 0 and hi = ref 1 and tail = ref 1 in
    let d = ref 0 and inside = ref 0 and radius = ref (-1) in
    while !radius < 0 do
      let boundary = ref 0 in
      for i = !lo to !hi - 1 do
        let u = queue.(i) in
        for j = offsets.{u} to offsets.{u + 1} - 1 do
          let w = targets.{j} in
          if Mask.mem remaining w then begin
            let dw = dist.(w) in
            if dw < 0 then begin
              dist.(w) <- !d + 1;
              queue.(!tail) <- w;
              incr tail;
              incr boundary
            end
            else if dw = !d + 1 then incr boundary
            else if dw = !d && u < w then incr inside
          end
        done
      done;
      if float_of_int !boundary <= epsilon *. float_of_int (!inside + 1) then
        radius := !d
      else begin
        inside := !inside + !boundary;
        lo := !hi;
        hi := !tail;
        incr d
      end
    done;
    let r = !radius in
    if r > !max_radius then max_radius := r;
    charge (r + 2);
    let id = !next_cluster in
    incr next_cluster;
    for i = 0 to !hi - 1 do
      cluster_of.(queue.(i)) <- id;
      Mask.remove remaining queue.(i)
    done;
    (* cut the boundary edges of the carved ball, consed in
       lexicographic order of their (smaller, larger) ends *)
    let ball_cut = ref [] in
    for i = !lo to !hi - 1 do
      let u = queue.(i) in
      for j = offsets.{u} to offsets.{u + 1} - 1 do
        let w = targets.{j} in
        if dist.(w) = r + 1 && Mask.mem remaining w then
          ball_cut := ((min u w * n) + max u w) :: !ball_cut
      done
    done;
    List.iter
      (fun p -> cut := (p / n, p mod n) :: !cut)
      (List.sort Int.compare !ball_cut);
    for i = 0 to !tail - 1 do
      dist.(queue.(i)) <- -1
    done
  done;
  {
    clustering = Cluster.Clustering.make g ~cluster_of;
    cut_edges = !cut;
    max_radius = !max_radius;
  }

let check result ~epsilon g =
  let ( let* ) r f = Result.bind r f in
  let clustering = result.clustering in
  let cut_set = Hashtbl.create (List.length result.cut_edges) in
  List.iter
    (fun (u, v) -> Hashtbl.replace cut_set (min u v, max u v) ())
    result.cut_edges;
  let* () =
    let bad = ref None in
    Graph.iter_edges g (fun u v ->
        let cu = Cluster.Clustering.cluster_of clustering u
        and cv = Cluster.Clustering.cluster_of clustering v in
        if cu >= 0 && cv >= 0 && cu <> cv && not (Hashtbl.mem cut_set (u, v))
        then bad := Some (u, v));
    match !bad with
    | None -> Ok ()
    | Some (u, v) ->
        Error (Printf.sprintf "edge_carving: surviving cross edge (%d,%d)" u v)
  in
  let* () =
    let m = Graph.m g in
    let k = Cluster.Clustering.num_clusters clustering in
    let allowed = epsilon *. float_of_int (m + k) in
    if float_of_int (List.length result.cut_edges) <= allowed +. 1e-9 then Ok ()
    else
      Error
        (Printf.sprintf "edge_carving: %d cut edges > allowance %.1f"
           (List.length result.cut_edges) allowed)
  in
  let bound = 2 * result.max_radius in
  let rec go c =
    if c >= Cluster.Clustering.num_clusters clustering then Ok ()
    else
      match Cluster.Clustering.strong_diameter clustering c with
      | -1 -> Error (Printf.sprintf "edge_carving: cluster %d disconnected" c)
      | d when d > bound ->
          Error
            (Printf.sprintf "edge_carving: cluster %d diameter %d > %d" c d
               bound)
      | _ -> go (c + 1)
  in
  go 0
