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

(* Node and cluster flags are one byte each: at the sizes repair runs
   on, an n-node set is small enough for the minor heap, where a
   [bool array] of n words would be a major-heap allocation per step. *)
let flags k = Bytes.make k '\000'
let flagged f i = Bytes.get f i <> '\000'
let flag f i b = Bytes.set f i (if b then '\001' else '\000')

(* The fault history is kept as packed-int sets, (u lsl 31) lor v as
   Graph.Builder packs. Invariants: [removed] holds normalized (u < v)
   base edges currently deleted; [extra] holds the non-base edges
   currently present, in both orientations, so the extra edges of a
   node are one range of the set; [current] is the base graph minus
   [removed] plus [extra], restricted to up nodes. *)
module Packed = Set.Make (Int)

type state = {
  base_g : Graph.t;
  down_set : Bytes.t;
  down_nodes : int list;  (* the nodes flagged in [down_set], ascending *)
  removed : Packed.t;
  extra : Packed.t;
  current : Graph.t;
}

let pack u v = (u lsl 31) lor v
let low = (1 lsl 31) - 1
let norm (u, v) = if u < v then (u, v) else (v, u)

let init g =
  {
    base_g = g;
    down_set = flags (Graph.n g);
    down_nodes = [];
    removed = Packed.empty;
    extra = Packed.empty;
    current = g;
  }

let graph st = st.current
let base st = st.base_g
let is_down st v = flagged st.down_set v

let down st = st.down_nodes

let survivors st =
  let n = Graph.n st.base_g in
  let m = Mask.empty n in
  for v = 0 to n - 1 do
    if not (flagged st.down_set v) then Mask.add m v
  done;
  m

(* [f w] for every non-base edge (v, w) in [extra] *)
let iter_extra extra v f =
  let hi = pack (v + 1) 0 in
  Seq.iter
    (fun p -> f (p land low))
    (Seq.take_while (fun p -> p < hi) (Packed.to_seq_from (pack v 0) extra))

let step st d =
  let n = Graph.n st.base_g in
  let check_node what v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Repair.step: %s node %d out of range" what v)
  in
  List.iter (check_node "crash") d.crash;
  List.iter (check_node "revive") d.revive;
  let down_set = Bytes.copy st.down_set in
  List.iter
    (fun v ->
      if is_down st v then
        invalid_arg (Printf.sprintf "Repair.step: crashing down node %d" v);
      if List.mem v d.revive then
        invalid_arg
          (Printf.sprintf "Repair.step: node %d both crashed and revived" v);
      if flagged down_set v then
        invalid_arg (Printf.sprintf "Repair.step: crashing node %d twice" v);
      flag down_set v true)
    d.crash;
  List.iter
    (fun v ->
      if not (is_down st v) then
        invalid_arg (Printf.sprintf "Repair.step: reviving up node %d" v);
      if not (flagged down_set v) then
        invalid_arg (Printf.sprintf "Repair.step: reviving node %d twice" v);
      flag down_set v false)
    d.revive;
  let up_after v = not (flagged down_set v) in
  (* [st.current] is the graph before this delta, so an edge listed
     twice must be caught here, not by the presence check *)
  let removed, extra, _ =
    List.fold_left
      (fun (removed, extra, seen) e ->
        let u, v = norm e in
        check_node "del-edge" u;
        check_node "del-edge" v;
        let p = pack u v in
        if Packed.mem p seen then
          invalid_arg
            (Printf.sprintf "Repair.step: deleting edge (%d,%d) twice" u v);
        if not (Graph.is_edge st.current u v) then
          invalid_arg
            (Printf.sprintf "Repair.step: deleting absent edge (%d,%d)" u v);
        let seen = Packed.add p seen in
        if Packed.mem p extra then
          (removed, Packed.remove p (Packed.remove (pack v u) extra), seen)
        else (Packed.add p removed, extra, seen))
      (st.removed, st.extra, Packed.empty)
      d.del_edges
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
        let p = pack u v in
        if Packed.mem p extra then
          invalid_arg
            (Printf.sprintf "Repair.step: inserting edge (%d,%d) twice" u v);
        if Packed.mem p removed then (Packed.remove p removed, extra)
        else if Graph.is_edge st.base_g u v then
          invalid_arg
            (Printf.sprintf "Repair.step: inserting existing edge (%d,%d)" u v)
        else (removed, Packed.add p (Packed.add (pack v u) extra)))
      (removed, extra) d.add_edges
  in
  (* Only these edges can change presence: the delta's own edges, the
     current edges of crashed nodes and the logical edges of revived
     ones. Each is re-derived from the post-delta fault state and the
     current graph is edited by exactly the ones that differ. *)
  let cands = ref [] in
  let cand u v = cands := pack (min u v) (max u v) :: !cands in
  List.iter (fun (u, v) -> cand u v) d.del_edges;
  List.iter (fun (u, v) -> cand u v) d.add_edges;
  List.iter (fun v -> Graph.iter_neighbors st.current v (cand v)) d.crash;
  List.iter
    (fun v ->
      Graph.iter_neighbors st.base_g v (cand v);
      iter_extra extra v (cand v))
    d.revive;
  let del = ref [] and add = ref [] in
  List.iter
    (fun p ->
      let u = p lsr 31 and v = p land low in
      let present =
        up_after u && up_after v
        && ((Graph.is_edge st.base_g u v && not (Packed.mem p removed))
           || Packed.mem p extra)
      in
      match (Graph.is_edge st.current u v, present) with
      | true, false -> del := (u, v) :: !del
      | false, true -> add := (u, v) :: !add
      | _ -> ())
    (List.sort_uniq Int.compare !cands);
  (* the one sanctioned delta-application path (the conformance lint's
     graph-edit rule) *)
  let current = Graph.apply_edits st.current ~del:!del ~add:!add in
  let down_nodes =
    List.merge Int.compare
      (List.filter (fun v -> flagged down_set v) st.down_nodes)
      (List.sort Int.compare d.crash)
  in
  { base_g = st.base_g; down_set; down_nodes; removed; extra; current }

(* ------------------------------------------------------------------ *)
(* Dirty-region planning                                               *)
(* ------------------------------------------------------------------ *)

type plan = { dirty : int list; region : int list; seeds : int list }

(* Node-indexed buffers of one plan and one merge, left as they were
   found: every flag cleared, every label, id and depth -1. A cluster id
   is below n, so the cluster-indexed ones are node-sized too. *)
type scratch = {
  dirty_c : Bytes.t;
  in_region : Bytes.t;
  withheld : Bytes.t;
  trimmed : Bytes.t;  (* untouched cluster that lost a member *)
  label : int array;  (* fresh cluster of a re-carved node, by sub id *)
  new_id : int array;  (* new id of an untouched cluster *)
  depth : int array;  (* the halo ball's BFS depths *)
  queue : int array;  (* and its queue *)
}

let scratch n =
  {
    dirty_c = flags n;
    in_region = flags n;
    withheld = flags n;
    trimmed = flags n;
    label = Array.make n (-1);
    new_id = Array.make n (-1);
    depth = Array.make n (-1);
    queue = Array.make n 0;
  }

(* multi-source BFS ball of radius [h] over up nodes: the nodes
   reached, in BFS order. It costs what the ball holds, not n, and
   leaves [depth] all -1. *)
let ball sc st ~seeds ~h =
  let depth = sc.depth and queue = sc.queue in
  let offsets = Graph.offsets st.current
  and targets = Graph.targets st.current in
  let tail = ref 0 in
  let reach v d =
    if (not (is_down st v)) && depth.(v) < 0 then begin
      depth.(v) <- d;
      queue.(!tail) <- v;
      incr tail
    end
  in
  List.iter (fun v -> reach v 0) seeds;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let d = depth.(v) in
    if d < h then
      for i = offsets.{v} to offsets.{v + 1} - 1 do
        reach targets.{i} (d + 1)
      done
  done;
  let reached = ref [] in
  for i = !tail - 1 downto 0 do
    reached := queue.(i) :: !reached;
    depth.(queue.(i)) <- -1
  done;
  !reached

let plan ?(halo = 0) ~scratch:sc ~weak ~color ~old st d =
  if halo < 0 then invalid_arg "Repair.plan: negative halo";
  let pre = Clustering.graph old in
  let n = Graph.n pre in
  if n <> Graph.n st.current then
    invalid_arg "Repair.plan: clustering and state disagree on n";
  if Array.length sc.depth <> n then
    invalid_arg "Repair.plan: scratch made for another number of nodes";
  let k = Clustering.num_clusters old in
  let dirty = flags k and dirty_ids = ref [] in
  let cl v = Clustering.cluster_of old v in
  let mark c =
    if c >= 0 && not (flagged dirty c) then begin
      flag dirty c true;
      dirty_ids := c :: !dirty_ids
    end
  in
  (* weak certificates route through arbitrary host nodes: any delta
     at all invalidates them *)
  if not (is_empty d) then
    List.iter
      (fun c ->
        if c < 0 || c >= k then
          invalid_arg
            (Printf.sprintf "Repair.plan: weak cluster %d out of range" c);
        mark c)
      weak;
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
  let seeds = List.sort_uniq Int.compare !seeds in
  let extras = ref d.revive in
  if halo > 0 then
    List.iter
      (fun v -> if cl v >= 0 then mark (cl v) else extras := v :: !extras)
      (ball sc st ~seeds ~h:halo);
  let region = ref [] in
  List.iter
    (fun c ->
      List.iter
        (fun v -> if not (is_down st v) then region := v :: !region)
        (Clustering.members old c))
    !dirty_ids;
  List.iter
    (fun v ->
      if cl v < 0 || not (flagged dirty (cl v)) then region := v :: !region)
    !extras;
  {
    dirty = List.sort Int.compare !dirty_ids;
    region = List.sort_uniq Int.compare !region;
    seeds;
  }

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)
(* ------------------------------------------------------------------ *)

type kind = Decomposition | Carving

type merged = {
  clustering : Clustering.t;
  colors : int array;
  carried : (int * int) list;
  fresh : int list;
  touched_nodes : int;
}

(* clears what a merge over [pl] may have set, however far it got *)
let reset sc ~old ~plan:pl ~state:st =
  List.iter (fun c -> flag sc.dirty_c c false) pl.dirty;
  let untrim v =
    let c = Clustering.cluster_of old v in
    if c >= 0 then flag sc.trimmed c false
  in
  List.iter
    (fun v ->
      flag sc.in_region v false;
      flag sc.withheld v false;
      sc.label.(v) <- -1;
      untrim v)
    pl.region;
  List.iter untrim st.down_nodes;
  Array.fill sc.new_id 0 (Clustering.num_clusters old) (-1)

(* The merged clustering is built from the old one. Untouched clusters
   keep their member lists (shared, unless a member left through the
   region or a crash), re-carved nodes form the fresh clusters of the
   re-carve's own normalized clustering, and one pass over the nodes
   renumbers both kinds in order of first appearance, as
   [Clustering.make] would on the merged labels. *)
let merge_into sc ~kind ~old ~color_of ~plan:pl ~state:st ~recarve =
  let n = Graph.n st.current in
  let k_old = Clustering.num_clusters old in
  let dirty = sc.dirty_c and in_region = sc.in_region in
  List.iter (fun c -> flag dirty c true) pl.dirty;
  List.iter (fun v -> flag in_region v true) pl.region;
  let untouched v =
    let c = Clustering.cluster_of old v in
    c >= 0 && (not (flagged dirty c)) && not (flagged in_region v)
  in
  (* carvings: withhold region nodes adjacent to an untouched cluster,
     so fresh clusters cannot break separation; the withheld nodes
     stay dead *)
  let withheld = sc.withheld in
  (match kind with
  | Decomposition -> ()
  | Carving ->
      List.iter
        (fun v ->
          Graph.iter_neighbors st.current v (fun w ->
              if untouched w then flag withheld v true))
        pl.region);
  let domain =
    List.filter
      (fun v -> (not (flagged withheld v)) && not (is_down st v))
      pl.region
  in
  (* the re-carve's clusters, normalized inside the sub graph; [back]
     is ascending, so mapped member lists stay sorted *)
  let fresh_cl, back =
    if domain = [] then (None, [||])
    else begin
      let sub, back = Subgraph.induce st.current domain in
      let sub_labels, _sub_colors = recarve sub in
      if Array.length sub_labels <> Graph.n sub then
        invalid_arg "Repair.merge: recarve returned wrong label count";
      Array.iteri
        (fun i l ->
          if l < 0 && kind = Decomposition then
            invalid_arg
              (Printf.sprintf
                 "Repair.merge: decomposition recarve left node %d unclustered"
                 back.(i)))
        sub_labels;
      let cl = Clustering.make sub ~cluster_of:sub_labels in
      Array.iteri (fun i v -> sc.label.(v) <- Clustering.cluster_of cl i) back;
      (Some cl, back)
    end
  in
  let k_fresh =
    match fresh_cl with Some cl -> Clustering.num_clusters cl | None -> 0
  in
  (* an untouched cluster loses the members that are down or in the
     region (for sessions, never: crashes dirty their cluster and the
     region holds dirty clusters and unclustered nodes) *)
  let trim v =
    let c = Clustering.cluster_of old v in
    if c >= 0 && not (flagged dirty c) then flag sc.trimmed c true
  in
  List.iter trim pl.region;
  List.iter trim st.down_nodes;
  (* one pass in node order: the first node of each cluster fixes its
     new id. Fresh clusters are met in the order of their first nodes,
     which is their order inside the sub graph, so [fresh_to_new]
     ascends. *)
  let cluster_of = Array.make n (-1) in
  let fresh_to_new = Array.make k_fresh (-1) in
  let k_new = ref 0 in
  let set_id v (ids : int array) i =
    if ids.(i) < 0 then begin
      ids.(i) <- !k_new;
      incr k_new
    end;
    cluster_of.(v) <- ids.(i)
  in
  for v = 0 to n - 1 do
    let l = sc.label.(v) in
    if l >= 0 then set_id v fresh_to_new l
    else
      let o = Clustering.cluster_of old v in
      if
        o >= 0
        && (not (flagged dirty o))
        && (not (flagged in_region v))
        && not (flagged st.down_set v)
      then set_id v sc.new_id o
  done;
  let members = Array.make !k_new [] in
  let colors = Array.make !k_new (-1) in
  let carried = ref [] in
  let colored = match kind with Decomposition -> true | Carving -> false in
  for o = k_old - 1 downto 0 do
    let c = sc.new_id.(o) in
    if c >= 0 then begin
      carried := (o, c) :: !carried;
      (* carried clusters keep their colors *)
      if colored then colors.(c) <- color_of o;
      members.(c) <-
        (if flagged sc.trimmed o then
           List.filter (fun v -> cluster_of.(v) = c) (Clustering.members old o)
         else Clustering.members old o)
    end
  done;
  (match fresh_cl with
  | None -> ()
  | Some cl ->
      Array.iteri
        (fun l c ->
          members.(c) <- List.map (fun i -> back.(i)) (Clustering.members cl l))
        fresh_to_new);
  let clustering = Clustering.of_parts st.current ~cluster_of ~members in
  (match kind with
  | Carving -> ()
  | Decomposition ->
      (* fresh clusters: smallest color unused by any adjacent,
         already-colored cluster — deterministic in new-id order, and
         always possible (the palette may grow) *)
      let rec banned i = function
        | [] -> false
        | b :: rest -> Int.equal b i || banned i rest
      in
      let offsets = Graph.offsets st.current
      and targets = Graph.targets st.current in
      (* the colors of [c]'s colored neighbours in row positions
         [j .. hi - 1], added to [used] *)
      let rec row c used j hi =
        if j = hi then used
        else
          let cw = Clustering.cluster_of clustering targets.{j} in
          let used =
            if
              cw >= 0 && cw <> c && colors.(cw) >= 0
              && not (banned colors.(cw) used)
            then colors.(cw) :: used
            else used
          in
          row c used (j + 1) hi
      in
      let rec neighbourhood c used = function
        | [] -> used
        | v :: rest ->
            neighbourhood c (row c used offsets.{v} offsets.{v + 1}) rest
      in
      Array.iter
        (fun c ->
          let used = neighbourhood c [] (Clustering.members clustering c) in
          let rec first i = if banned i used then first (i + 1) else i in
          colors.(c) <- first 0)
        fresh_to_new);
  {
    clustering;
    colors;
    carried = !carried;
    fresh = Array.to_list fresh_to_new;
    touched_nodes = List.length pl.region;
  }

let merge ~scratch:sc ~kind ~old ~color_of ~plan ~state ~recarve =
  let n = Graph.n state.current and k_old = Clustering.num_clusters old in
  if Graph.n (Clustering.graph old) <> n then
    invalid_arg "Repair.merge: clustering and state disagree on n";
  if Bytes.length sc.in_region <> n then
    invalid_arg "Repair.merge: scratch made for another number of nodes";
  (* the scratch is only ever written in range, so [reset] cannot fail *)
  let in_range what bound i =
    if i < 0 || i >= bound then
      invalid_arg (Printf.sprintf "Repair.merge: %s %d out of range" what i)
  in
  List.iter (in_range "dirty cluster" k_old) plan.dirty;
  List.iter (in_range "region node" n) plan.region;
  Fun.protect
    ~finally:(fun () -> reset sc ~old ~plan ~state)
    (fun () -> merge_into sc ~kind ~old ~color_of ~plan ~state ~recarve)
