open Dsgraph

type witness = {
  w_root : int;
  w_parents : (int * int) list;
  w_height : int;
}

type cert = {
  cluster : int;
  color : int;
  members : int list;
  strong : bool;
  tree : witness option;
  diameter_lb : int;
  lb_pair : int * int;
  diameter_ub : int option;
}

type kind = Decomposition | Carving

type t = {
  kind : kind;
  n : int;
  certs : cert list;
  num_colors : int;
  domain : int list;
  dead : int;
  dead_fraction : float;
}

let cert_of_cluster ~scratch clustering ~color c =
  let members = Cluster.Clustering.members clustering c in
  let of_tree (root, pairs, height) =
    { w_root = root; w_parents = pairs; w_height = height }
  in
  match Cluster.Clustering.strong_witnesses ~scratch clustering c with
  | Some (w, (u, v, d)) ->
      let w = of_tree w in
      {
        cluster = c;
        color;
        members;
        strong = true;
        tree = Some w;
        diameter_lb = d;
        lb_pair = (u, v);
        diameter_ub = Some (2 * w.w_height);
      }
  | None ->
      (* induced subgraph disconnected: fall back to host-graph witnesses *)
      let tree =
        Option.map of_tree (Cluster.Clustering.weak_witness_tree clustering c)
      in
      let u, v, d = Cluster.Clustering.weak_eccentric_pair clustering c in
      {
        cluster = c;
        color;
        members;
        strong = false;
        tree;
        diameter_lb = d;
        lb_pair = (u, v);
        diameter_ub = Option.map (fun w -> 2 * w.w_height) tree;
      }

let certs_of_clustering clustering ~color_of =
  let scratch = Bfs.scratch (Graph.n (Cluster.Clustering.graph clustering)) in
  List.init (Cluster.Clustering.num_clusters clustering) (fun c ->
      cert_of_cluster ~scratch clustering ~color:(color_of c) c)

let certify_decomposition d =
  let clustering = Cluster.Decomposition.clustering d in
  let g = Cluster.Clustering.graph clustering in
  let n = Graph.n g in
  let dead = n - Cluster.Clustering.clustered_count clustering in
  {
    kind = Decomposition;
    n;
    certs =
      certs_of_clustering clustering
        ~color_of:(Cluster.Decomposition.color_of_cluster d);
    num_colors = Cluster.Decomposition.num_colors d;
    domain = List.init n Fun.id;
    dead;
    dead_fraction =
      (if n = 0 then 0.0 else float_of_int dead /. float_of_int n);
  }

let certify_carving (cv : Cluster.Carving.t) =
  let clustering = cv.Cluster.Carving.clustering in
  let g = Cluster.Clustering.graph clustering in
  let dead = List.length (Cluster.Carving.dead cv) in
  {
    kind = Carving;
    n = Graph.n g;
    certs = certs_of_clustering clustering ~color_of:(fun _ -> -1);
    num_colors = 0;
    domain = Mask.to_list cv.Cluster.Carving.domain;
    dead;
    dead_fraction = Cluster.Carving.dead_fraction cv;
  }

(* ------------------------------------------------------------------ *)
(* Independent re-verification against the raw graph                    *)
(* ------------------------------------------------------------------ *)

exception Reject of string

let fail fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

(* Producers emit cluster ids 0..k-1 in list order. Checked position by
   position, an in-range id below its position has already been seen, so
   it is a repeat. *)
let id_error ~k i id =
  if id < 0 || id >= k then
    Some (Printf.sprintf "cluster id %d outside [0, %d)" id k)
  else if id < i then
    Some
      (Printf.sprintf "cluster id %d appears twice (certificates %d and %d)"
         id id i)
  else if id > i then
    Some
      (Printf.sprintf
         "certificate %d carries cluster id %d: ids must run 0..%d in list \
          order"
         i id (k - 1))
  else None

(* [id_error] is [None] exactly when the id equals its position, so
   the first error is found without k, which is counted only for its
   message *)
let cert_ids t =
  let rec walk i = function
    | [] -> Ok i
    | c :: rest ->
        if c.cluster = i then walk (i + 1) rest
        else
          Error
            (Option.get (id_error ~k:(List.length t.certs) i c.cluster))
  in
  walk 0 t.certs

let certs_by_id t = Result.map (fun _ -> Array.of_list t.certs) (cert_ids t)

(* Verify buffers, reused across verifies. Each verify reserves the
   stamps [base .. base + k] (k certificates): cluster c's stamp is
   [base + c] and the domain's is [base + k]. Every stamp a verify
   writes is below the next one's base, so stale entries read as
   absent and nothing is ever cleared. [owner.(v)] is the stamp of the
   cluster that claimed v, which is also the class id the member-
   restricted BFS reads. Once the claims are checked, [in_domain] is
   free: a weak eccentric-pair search stamps its target there, a class
   of one node for [Bfs.reach]. [bfs] keeps its all-[-1] [dist] between
   searches. *)
type workspace = {
  w_n : int;
  mutable next : int;
  in_domain : int array;
  owner : int array;
  node_color : int array;
  t_parent : int array;
  t_has_parent : int array;  (* stamp when t_parent holds this cert's entry *)
  t_depth : int array;
  t_has_depth : int array;  (* stamp when t_depth is known *)
  bfs : Bfs.scratch;
}

let workspace n =
  {
    w_n = n;
    next = 0;
    in_domain = Array.make n (-1);
    owner = Array.make n (-1);
    node_color = Array.make n 0;
    t_parent = Array.make n 0;
    t_has_parent = Array.make n (-1);
    t_depth = Array.make n 0;
    t_has_depth = Array.make n (-1);
    bfs = Bfs.scratch n;
  }

(* depth of every tree node from the parent pointers alone, rejecting
   duplicate nodes, dangling parents, and cycles; every node is in range
   (the caller has checked the root and every pair). The walks are
   top-level functions over explicit arguments, so verifying a tree
   allocates nothing. *)
let rec record_parents ts ~stamp ~cluster ~root = function
  | [] -> ()
  | (v, p) :: rest ->
      if v = root then
        fail "cluster %d: witness root %d also has a parent" cluster v;
      if ts.t_has_parent.(v) = stamp then
        fail "cluster %d: node %d appears twice in the witness tree" cluster v;
      ts.t_has_parent.(v) <- stamp;
      ts.t_parent.(v) <- p;
      record_parents ts ~stamp ~cluster ~root rest

(* climb to the nearest node of known depth: its depth plus the steps *)
let rec climb ts ~stamp ~cluster ~bound steps u =
  if steps > bound then
    fail "cluster %d: witness tree has a parent cycle at node %d" cluster u;
  if ts.t_has_depth.(u) = stamp then ts.t_depth.(u) + steps
  else if ts.t_has_parent.(u) <> stamp then
    fail "cluster %d: node %d hangs off the witness tree (parent %s)" cluster u
      "missing"
  else climb ts ~stamp ~cluster ~bound (steps + 1) ts.t_parent.(u)

(* write the depths back down the climbed path *)
let rec settle ts ~stamp d u =
  if ts.t_has_depth.(u) <> stamp then begin
    ts.t_has_depth.(u) <- stamp;
    ts.t_depth.(u) <- d;
    settle ts ~stamp (d - 1) ts.t_parent.(u)
  end

let rec settle_all ts ~stamp ~cluster ~bound = function
  | [] -> ()
  | (v, _) :: rest ->
      settle ts ~stamp (climb ts ~stamp ~cluster ~bound 0 v) v;
      settle_all ts ~stamp ~cluster ~bound rest

let tree_depths ts ~stamp ~cluster w =
  record_parents ts ~stamp ~cluster ~root:w.w_root w.w_parents;
  ts.t_has_depth.(w.w_root) <- stamp;
  ts.t_depth.(w.w_root) <- 0;
  let bound = List.length w.w_parents + 1 in
  settle_all ts ~stamp ~cluster ~bound w.w_parents

let rec members_in_tree ts ~stamp ~cluster = function
  | [] -> ()
  | v :: rest ->
      if ts.t_has_depth.(v) <> stamp then
        fail "cluster %d: member %d missing from the witness tree" cluster v;
      members_in_tree ts ~stamp ~cluster rest

let rec tree_height ts h = function
  | [] -> h
  | v :: rest -> tree_height ts (Int.max h ts.t_depth.(v)) rest

(* The certificate of a one-node cluster {v}: root v, no pairs, height
   0, the pair (v, v) at lower bound 0, upper bound 0. Once the claim
   pass of [verify_with] has put v in range and in this cluster, its
   witness checks can only accept it (the tree is the root alone, of
   height 0, and 0 = 2 x 0; the pair is one member at distance 0), so
   they are skipped: the cluster costs its claim and these
   comparisons. *)
let trivial = function
  | {
      members = [ v ];
      strong = true;
      tree = Some { w_root; w_parents = []; w_height = 0 };
      diameter_lb = 0;
      lb_pair = a, b;
      diameter_ub = Some 0;
      _;
    } ->
      w_root = v && a = v && b = v
  | _ -> false

(* [v] is a member of the class [id] *)
let member ~owner ~id n v = v >= 0 && v < n && owner.(v) = id

let rec check_pairs g ~owner ~id cert = function
  | [] -> ()
  | (v, p) :: rest ->
      let n = Graph.n g in
      if v < 0 || v >= n || p < 0 || p >= n then
        fail "cluster %d: witness pair (%d,%d) out of range" cert.cluster v p;
      if not (Graph.is_edge g v p) then
        fail "cluster %d: witness pair (%d,%d) is not a graph edge"
          cert.cluster v p;
      if
        cert.strong
        && not (member ~owner ~id n v && member ~owner ~id n p)
      then
        fail "cluster %d: strong witness pair (%d,%d) leaves the cluster"
          cert.cluster v p;
      check_pairs g ~owner ~id cert rest

(* The witness checks of one certificate on [g]: the tree, the
   eccentric pair and the bounds. Membership is [owner.(v) = id], which
   the claim checks have made hold for exactly the members; [stamp] is
   one no earlier check has written into the tree buffers or
   [in_domain], where a weak pair's search stamps its target. The
   functions are top-level and take the certificate, so a check
   allocates nothing. *)
let check_witnesses ws g ~owner ~id ~stamp cert =
  let n = Graph.n g in
  (match cert.tree with
  | None ->
      if cert.diameter_ub <> None then
        fail "cluster %d: diameter upper bound without a witness tree"
          cert.cluster
  | Some w ->
      if not (member ~owner ~id n w.w_root) then
        fail "cluster %d: witness root %d is not a member" cert.cluster
          w.w_root;
      check_pairs g ~owner ~id cert w.w_parents;
      tree_depths ws ~stamp ~cluster:cert.cluster w;
      members_in_tree ws ~stamp ~cluster:cert.cluster cert.members;
      (* the tree holds its root plus one distinct node per pair *)
      if cert.strong && List.length w.w_parents + 1 <> List.length cert.members
      then
        fail "cluster %d: strong witness tree has non-member nodes"
          cert.cluster;
      let height = tree_height ws 0 cert.members in
      if height <> w.w_height then
        fail "cluster %d: witness height claims %d, recomputed %d"
          cert.cluster w.w_height height;
      match cert.diameter_ub with
      | Some ub when ub = 2 * w.w_height -> ()
      | _ ->
          fail "cluster %d: diameter upper bound is not 2 x height"
            cert.cluster);
  (if cert.diameter_lb >= 0 then begin
     let u, v = cert.lb_pair in
     if not (member ~owner ~id n u && member ~owner ~id n v) then
       fail "cluster %d: eccentric pair (%d,%d) not members" cert.cluster u
         v;
     (* strong: member-restricted BFS, O(cluster volume), so the full
        recheck stays linear across 10^5+ clusters (the class is
        exactly cert.members, what a pull step scans); weak: host-graph
        BFS that stops at v, the one node of in_domain with [stamp] *)
     let duv =
       if u = v then 0
       else begin
         let bfs = ws.bfs in
         let reached =
           if cert.strong then
             Bfs.restricted_into g ~owner ~id ~members:cert.members ~source:u
               bfs
           else begin
             ws.in_domain.(v) <- stamp;
             Bfs.reach g ~owner:ws.in_domain ~id:stamp ~count:1 ~source:u bfs
           end
         in
         let d = bfs.Bfs.dist.(v) in
         Bfs.release bfs reached;
         d
       end
     in
     if duv <> cert.diameter_lb then
       fail
         "cluster %d: eccentric pair (%d,%d) is at distance %d, not the \
          claimed %d"
         cert.cluster u v duv cert.diameter_lb
   end);
  match (cert.diameter_lb, cert.diameter_ub) with
  | lb, Some ub when lb > ub ->
      fail "cluster %d: lower bound %d exceeds upper bound %d" cert.cluster
        lb ub
  | _ -> ()

let verify_with ws g t =
  let n = Graph.n g in
  if ws.w_n <> n then
    invalid_arg
      (Printf.sprintf "Audit.verify_with: workspace for %d nodes, graph has %d"
         ws.w_n n);
  let k = List.length t.certs in
  let base = ws.next in
  ws.next <- base + k + 1;
  let in_domain = ws.in_domain and owner = ws.owner in
  let node_color = ws.node_color in
  let dom = base + k in
  try
    if t.n <> n then
      fail "certificate claims n=%d but the graph has %d nodes" t.n n;
    (* domain: sorted, in range, duplicate-free *)
    let rec check_domain size = function
      | [] -> size
      | v :: rest ->
          if v < 0 || v >= n then fail "domain node %d out of range" v;
          if in_domain.(v) = dom then fail "domain node %d listed twice" v;
          in_domain.(v) <- dom;
          check_domain (size + 1) rest
    in
    let domain_size = check_domain 0 t.domain in
    (* membership: disjoint clusters with ids 0..k-1 in order, confined
       to the domain; owner.(v) is base + the id of v's cluster, so
       afterwards one array read answers "is v a member of cluster c" *)
    let clustered = ref 0 in
    (* per-cluster walks are defined once per verify and take the cert
       as an argument, so no closure is allocated per cluster *)
    let rec claim cert = function
      | [] -> ()
      | v :: rest ->
          if v < 0 || v >= n then
            fail "cluster %d: member %d out of range" cert.cluster v;
          if in_domain.(v) <> dom then
            fail "cluster %d: member %d outside the domain" cert.cluster v;
          if owner.(v) >= base then
            fail "node %d claimed by clusters %d and %d" v (owner.(v) - base)
              cert.cluster;
          owner.(v) <- base + cert.cluster;
          node_color.(v) <- cert.color;
          incr clustered;
          claim cert rest
    in
    (* the certificates the witness pass must walk, last first *)
    let nontrivial = ref [] in
    List.iteri
      (fun i cert ->
        (match id_error ~k i cert.cluster with
        | Some e -> fail "%s" e
        | None -> ());
        if cert.members = [] then fail "cluster %d is empty" cert.cluster;
        (match t.kind with
        | Decomposition ->
            if cert.color < 0 || cert.color >= t.num_colors then
              fail "cluster %d: color %d outside [0, %d)" cert.cluster
                cert.color t.num_colors
        | Carving ->
            if cert.color <> -1 then
              fail "cluster %d: carved clusters carry no colors (got %d)"
                cert.cluster cert.color);
        claim cert cert.members;
        if not (trivial cert) then nontrivial := cert :: !nontrivial)
      t.certs;
    (* dead accounting, recounted from the lists just validated *)
    let dead = domain_size - !clustered in
    if dead <> t.dead then
      fail "dead count: certificate claims %d, recount gives %d" t.dead dead;
    (match t.kind with
    | Decomposition ->
        if dead > 0 then fail "decomposition leaves %d nodes unclustered" dead
    | Carving -> ());
    let denom = domain_size in
    let expected_fraction =
      if denom = 0 then 0.0 else float_of_int dead /. float_of_int denom
    in
    if Float.abs (expected_fraction -. t.dead_fraction) > 1e-9 then
      fail "dead fraction: certificate claims %.6f, recount gives %.6f"
        t.dead_fraction expected_fraction;
    (* color-class disjointness by one scan of the raw edge set; for
       carvings every color is -1, so this is full non-adjacency *)
    let offsets = Graph.offsets g and targets = Graph.targets g in
    for u = 0 to n - 1 do
      let ou = owner.(u) in
      if ou >= base then
        for i = offsets.{u} to offsets.{u + 1} - 1 do
          let v = targets.{i} in
          let ov = owner.(v) in
          if u < v && ov >= base && ov <> ou && node_color.(v) = node_color.(u)
          then
            fail "edge (%d,%d) joins clusters %d and %d of the same color %d"
              u v (ou - base) (ov - base) node_color.(u)
        done
    done;
    (* witness trees and eccentric pairs, cluster by cluster, over the
       workspace's buffers; owner answers membership, and a cluster's
       class id doubles as its stamp *)
    List.iter
      (fun cert ->
        let id = base + cert.cluster in
        check_witnesses ws g ~owner ~id ~stamp:id cert)
      (List.rev !nontrivial);
    Ok ()
  with Reject msg -> Error msg

let verify g t = verify_with (workspace (Graph.n g)) g t

let witness_ok ws g ~owner ~id cert =
  if ws.w_n <> Graph.n g then
    invalid_arg
      (Printf.sprintf "Audit.witness_ok: workspace for %d nodes, graph has %d"
         ws.w_n (Graph.n g));
  trivial cert
  ||
  let stamp = ws.next in
  ws.next <- stamp + 1;
  match check_witnesses ws g ~owner ~id ~stamp cert with
  | () -> true
  | exception Reject _ -> false

(* The one source of truth for post-fault validity: certify the labels
   restricted to the survivor subgraph as a carving (non-adjacency is
   the color scan with every color -1) and re-verify the certificate
   against that subgraph alone. Used by Workload.Faults and the chaos
   harness — there is deliberately no second, hand-rolled checker. *)
let check_survivors g ~survivors ~labels =
  let sub, back = Subgraph.induce g survivors in
  let nsub = Graph.n sub in
  let sub_labels =
    Array.init nsub (fun i ->
        let l = labels.(back.(i)) in
        if l < 0 then -1 else l)
  in
  let clustering = Cluster.Clustering.make sub ~cluster_of:sub_labels in
  let carving =
    Cluster.Carving.make clustering ~domain:(Mask.full nsub)
  in
  let t = certify_carving carving in
  (verify sub t, t.dead_fraction)

let max_diameter_lb t =
  List.fold_left
    (fun acc cert ->
      if acc < 0 || cert.diameter_lb < 0 then -1 else max acc cert.diameter_lb)
    0 t.certs

let max_diameter_ub t =
  List.fold_left
    (fun acc cert ->
      match (acc, cert.diameter_ub) with
      | Some a, Some u -> Some (max a u)
      | _ -> None)
    (Some 0) t.certs

let pp_table ?(max_rows = 40) ppf t =
  Format.fprintf ppf "%8s %6s %6s %-7s %7s %7s %7s@." "cluster" "size"
    "color" "witness" "height" "diamLB" "diamUB";
  let shown = ref 0 in
  List.iter
    (fun cert ->
      if !shown < max_rows then begin
        incr shown;
        Format.fprintf ppf "%8d %6d %6s %-7s %7s %7s %7s@." cert.cluster
          (List.length cert.members)
          (if cert.color < 0 then "-" else string_of_int cert.color)
          (if cert.strong then "strong" else "weak")
          (match cert.tree with
          | Some w -> string_of_int w.w_height
          | None -> "-")
          (if cert.diameter_lb < 0 then "-"
           else string_of_int cert.diameter_lb)
          (match cert.diameter_ub with
          | Some u -> string_of_int u
          | None -> "-")
      end)
    t.certs;
  let rest = List.length t.certs - !shown in
  if rest > 0 then Format.fprintf ppf "%8s ... and %d more clusters@." "" rest
