open Dsgraph

type delta = {
  crash : int list;
  revive : int list;
  del_edges : (int * int) list;
  add_edges : (int * int) list;
}

let delta ?(crash = []) ?(revive = []) ?(del_edges = []) ?(add_edges = []) () =
  { crash; revive; del_edges; add_edges }

let is_empty d =
  d.crash = [] && d.revive = [] && d.del_edges = [] && d.add_edges = []

(* The fault history is kept as lists of normalized (u < v) pairs;
   deltas are small, so list membership is cheap compared to the graph
   rebuild. Invariants: [removed] is a subset of the base edge set,
   [extra] is disjoint from it. *)
type state = {
  base_g : Graph.t;
  down_set : bool array;
  removed : (int * int) list; (* base edges currently deleted *)
  extra : (int * int) list; (* non-base edges currently present *)
  current : Graph.t;
}

let norm (u, v) = if u < v then (u, v) else (v, u)

(* Materialize the current graph from the base plus the fault history:
   the one sanctioned delta-application path (see the conformance
   lint's graph-edit rule). Crashed nodes are isolated; their logical
   edges return on revival. *)
let materialize base_g ~down_set ~removed ~extra =
  let up u = not down_set.(u) in
  let del = ref removed in
  Graph.iter_edges base_g (fun u v ->
      if (not (up u)) || not (up v) then
        if not (List.mem (u, v) removed) then del := (u, v) :: !del);
  let add = List.filter (fun (u, v) -> up u && up v) extra in
  Graph.apply_edits base_g ~del:!del ~add

let init g =
  {
    base_g = g;
    down_set = Array.make (Graph.n g) false;
    removed = [];
    extra = [];
    current = g;
  }

let graph st = st.current
let base st = st.base_g
let is_down st v = st.down_set.(v)

let down st =
  let acc = ref [] in
  for v = Array.length st.down_set - 1 downto 0 do
    if st.down_set.(v) then acc := v :: !acc
  done;
  !acc

let survivors st =
  let n = Graph.n st.base_g in
  let m = Mask.empty n in
  for v = 0 to n - 1 do
    if not st.down_set.(v) then Mask.add m v
  done;
  m

let step st d =
  let n = Graph.n st.base_g in
  let check_node what v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Repair.step: %s node %d out of range" what v)
  in
  List.iter (check_node "crash") d.crash;
  List.iter (check_node "revive") d.revive;
  List.iter
    (fun v ->
      if st.down_set.(v) then
        invalid_arg (Printf.sprintf "Repair.step: crashing down node %d" v);
      if List.mem v d.revive then
        invalid_arg
          (Printf.sprintf "Repair.step: node %d both crashed and revived" v))
    d.crash;
  List.iter
    (fun v ->
      if not st.down_set.(v) then
        invalid_arg (Printf.sprintf "Repair.step: reviving up node %d" v))
    d.revive;
  let down_set = Array.copy st.down_set in
  List.iter (fun v -> down_set.(v) <- true) d.crash;
  List.iter (fun v -> down_set.(v) <- false) d.revive;
  let up_after v = not down_set.(v) in
  (* [st.current] is the graph before this delta, so an edge listed
     twice must be caught here, not by the presence check *)
  let removed, extra, _ =
    List.fold_left
      (fun (removed, extra, seen) e ->
        let u, v = norm e in
        check_node "del-edge" u;
        check_node "del-edge" v;
        if List.mem (u, v) seen then
          invalid_arg
            (Printf.sprintf "Repair.step: deleting edge (%d,%d) twice" u v);
        if not (Graph.is_edge st.current u v) then
          invalid_arg
            (Printf.sprintf "Repair.step: deleting absent edge (%d,%d)" u v);
        let seen = (u, v) :: seen in
        if List.mem (u, v) extra then
          (removed, List.filter (( <> ) (u, v)) extra, seen)
        else ((u, v) :: removed, extra, seen))
      (st.removed, st.extra, []) d.del_edges
  in
  let removed, extra =
    List.fold_left
      (fun (removed, extra) e ->
        let u, v = norm e in
        check_node "add-edge" u;
        check_node "add-edge" v;
        if u = v then invalid_arg "Repair.step: self-loop insertion";
        if not (up_after u && up_after v) then
          invalid_arg
            (Printf.sprintf
               "Repair.step: inserting edge (%d,%d) at a down endpoint" u v);
        if List.mem (u, v) extra then
          invalid_arg
            (Printf.sprintf "Repair.step: inserting edge (%d,%d) twice" u v);
        if List.mem (u, v) removed then
          (List.filter (( <> ) (u, v)) removed, extra)
        else if Graph.is_edge st.base_g u v then
          invalid_arg
            (Printf.sprintf "Repair.step: inserting existing edge (%d,%d)" u v)
        else (removed, (u, v) :: extra))
      (removed, extra) d.add_edges
  in
  let current = materialize st.base_g ~down_set ~removed ~extra in
  { base_g = st.base_g; down_set; removed; extra; current }

(* ------------------------------------------------------------------ *)
(* Dirty-region planning                                               *)
(* ------------------------------------------------------------------ *)

type plan = { dirty : int list; region : int list; seeds : int list }

(* multi-source BFS ball of radius [h], restricted to up nodes *)
let ball g ~up ~seeds ~h =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  List.iter
    (fun v ->
      if up v && dist.(v) < 0 then begin
        dist.(v) <- 0;
        Queue.add v q
      end)
    seeds;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    if dist.(v) < h then
      Graph.iter_neighbors g v (fun w ->
          if up w && dist.(w) < 0 then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w q
          end)
  done;
  dist

let plan ?(halo = 0) ~weak ~color ~old st d =
  if halo < 0 then invalid_arg "Repair.plan: negative halo";
  let pre = Clustering.graph old in
  let n = Graph.n pre in
  if n <> Graph.n st.current then
    invalid_arg "Repair.plan: clustering and state disagree on n";
  let k = Clustering.num_clusters old in
  let dirty = Array.make k false in
  let cl v = Clustering.cluster_of old v in
  let mark c = if c >= 0 then dirty.(c) <- true in
  (* weak certificates route through arbitrary host nodes: any delta
     at all invalidates them *)
  if not (is_empty d) then
    for c = 0 to k - 1 do
      if weak c then dirty.(c) <- true
    done;
  (* a crashed member invalidates its cluster's membership *)
  List.iter (fun v -> mark (cl v)) d.crash;
  let seeds = ref [] in
  let seed v = if not (is_down st v) then seeds := v :: !seeds in
  (* the halo ball grows from the fault sites: the hole a crash leaves
     (its pre-graph neighborhood), changed-edge endpoints, revivals *)
  List.iter
    (fun v -> Graph.iter_neighbors pre v (fun w -> seed w))
    d.crash;
  List.iter (fun v -> seed v) d.revive;
  let edge_change (u, v) =
    seed u;
    seed v;
    (* an intra-cluster edge change can shift the exact eccentric-pair
       distance a strong certificate witnesses *)
    if cl u >= 0 && cl u = cl v then mark (cl u)
  in
  List.iter edge_change d.del_edges;
  List.iter
    (fun (u, v) ->
      edge_change (u, v);
      (* an inserted edge between distinct same-color clusters (for
         carvings all colors are -1: between any two clusters) breaks
         separation *)
      if cl u >= 0 && cl v >= 0 && cl u <> cl v && color (cl u) = color (cl v)
      then begin
        mark (cl u);
        mark (cl v)
      end)
    d.add_edges;
  let seeds = List.sort_uniq compare !seeds in
  let extras = ref d.revive in
  (if halo > 0 then
     let dist =
       ball st.current ~up:(fun v -> not (is_down st v)) ~seeds ~h:halo
     in
     for v = 0 to n - 1 do
       if dist.(v) >= 0 then
         if cl v >= 0 then mark (cl v) else extras := v :: !extras
     done);
  let region = ref [] in
  for c = 0 to k - 1 do
    if dirty.(c) then
      List.iter
        (fun v -> if not (is_down st v) then region := v :: !region)
        (Clustering.members old c)
  done;
  List.iter
    (fun v -> if cl v < 0 || not dirty.(cl v) then region := v :: !region)
    !extras;
  let dirty_ids = ref [] in
  for c = k - 1 downto 0 do
    if dirty.(c) then dirty_ids := c :: !dirty_ids
  done;
  { dirty = !dirty_ids; region = List.sort_uniq compare !region; seeds }

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)
(* ------------------------------------------------------------------ *)

type kind = Decomposition | Carving

type merged = {
  clustering : Clustering.t;
  colors : int array;
  old_to_new : int array;
  fresh : int list;
  touched_nodes : int;
}

let merge ~kind ~old ~color_of ~plan:pl ~state:st ~recarve =
  let n = Graph.n st.current in
  let k_old = Clustering.num_clusters old in
  let dirty = Array.make k_old false in
  List.iter (fun c -> dirty.(c) <- true) pl.dirty;
  let in_region = Array.make n false in
  List.iter (fun v -> in_region.(v) <- true) pl.region;
  let untouched v =
    let c = Clustering.cluster_of old v in
    c >= 0 && (not dirty.(c)) && not in_region.(v)
  in
  (* carvings: withhold region nodes adjacent to an untouched cluster,
     so fresh clusters cannot break separation; the withheld nodes
     stay dead *)
  let withheld = Array.make n false in
  (match kind with
  | Decomposition -> ()
  | Carving ->
      List.iter
        (fun v ->
          Graph.iter_neighbors st.current v (fun w ->
              if untouched w then withheld.(v) <- true))
        pl.region);
  let domain =
    List.filter (fun v -> (not withheld.(v)) && not (is_down st v)) pl.region
  in
  let labels = Array.make n (-1) in
  (* untouched clusters keep their old cluster id as the label; fresh
     clusters get labels starting at k_old, so probing any member of a
     normalized cluster recovers which side it came from *)
  for v = 0 to n - 1 do
    if untouched v && not (is_down st v) then
      labels.(v) <- Clustering.cluster_of old v
  done;
  if domain <> [] then begin
    let sub, back = Subgraph.induce st.current domain in
    let sub_labels, _sub_colors = recarve sub in
    if Array.length sub_labels <> Graph.n sub then
      invalid_arg "Repair.merge: recarve returned wrong label count";
    Array.iteri
      (fun i l ->
        if l >= 0 then labels.(back.(i)) <- k_old + l
        else if kind = Decomposition then
          invalid_arg
            (Printf.sprintf
               "Repair.merge: decomposition recarve left node %d unclustered"
               back.(i)))
      sub_labels
  end;
  let clustering = Clustering.make st.current ~cluster_of:labels in
  let k_new = Clustering.num_clusters clustering in
  let old_to_new = Array.make k_old (-1) in
  let from_old = Array.make (max k_new 1) (-1) in
  for c = 0 to k_new - 1 do
    match Clustering.members clustering c with
    | [] -> ()
    | v :: _ ->
        let l = labels.(v) in
        if l < k_old then begin
          old_to_new.(l) <- c;
          from_old.(c) <- l
        end
  done;
  let fresh = ref [] in
  for c = k_new - 1 downto 0 do
    if from_old.(c) < 0 then fresh := c :: !fresh
  done;
  let colors = Array.make (max k_new 1) (-1) in
  (match kind with
  | Carving -> ()
  | Decomposition ->
      (* carried clusters keep their colors *)
      for c = 0 to k_new - 1 do
        if from_old.(c) >= 0 then colors.(c) <- color_of from_old.(c)
      done;
      (* fresh clusters: smallest color unused by any adjacent,
         already-colored cluster — deterministic in new-id order, and
         always possible (the palette may grow) *)
      List.iter
        (fun c ->
          let banned = Hashtbl.create 8 in
          List.iter
            (fun v ->
              Graph.iter_neighbors st.current v (fun w ->
                  let cw = Clustering.cluster_of clustering w in
                  if cw >= 0 && cw <> c && colors.(cw) >= 0 then
                    Hashtbl.replace banned colors.(cw) ()))
            (Clustering.members clustering c);
          let rec first i = if Hashtbl.mem banned i then first (i + 1) else i in
          colors.(c) <- first 0)
        !fresh);
  let colors = Array.sub colors 0 k_new in
  {
    clustering;
    colors;
    old_to_new;
    fresh = !fresh;
    touched_nodes = List.length pl.region;
  }
