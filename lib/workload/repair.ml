open Dsgraph
module CR = Cluster.Repair

(* Scratch of one session lineage: what [repair] and [verify_cert]
   would otherwise allocate per step. Holds no result; the cert buffers
   are refilled from the session's audit on every use. *)
type workspace = {
  verify : Audit.workspace;
  bfs : Bfs.scratch;  (* certifies fresh clusters *)
  merge : CR.scratch;
  old_certs : Audit.cert array ref;
  new_certs : Audit.cert array ref;
  from_old : int array;  (* new cluster id -> old id, or -1 *)
}

(* the cert buffers start at twice the first audit's size, so a lineage
   whose cluster count stays below that never regrows them *)
let workspace (audit : Audit.t) =
  let n = audit.Audit.n in
  let sized () =
    let buf = ref [||] in
    ignore (Audit.certs_by_id_into buf audit : (int, string) result);
    buf
  in
  {
    verify = Audit.workspace n;
    bfs = Bfs.scratch n;
    merge = CR.scratch n;
    old_certs = sized ();
    new_certs = sized ();
    from_old = Array.make n (-1);
  }

type session = {
  state : CR.state;
  clustering : Cluster.Clustering.t;
  colors : int array;
  base_domain : bool array;
  audit : Audit.t;
  work : workspace;
}

let start_decomposition d =
  let audit = Audit.certify_decomposition d in
  let clustering = Cluster.Decomposition.clustering d in
  let g = Cluster.Clustering.graph clustering in
  let k = Cluster.Clustering.num_clusters clustering in
  {
    state = CR.init g;
    clustering;
    colors = Array.init k (Cluster.Decomposition.color_of_cluster d);
    base_domain = Array.make (Graph.n g) true;
    audit;
    work = workspace audit;
  }

let start_carving cv =
  let audit = Audit.certify_carving cv in
  let clustering = cv.Cluster.Carving.clustering in
  let g = Cluster.Clustering.graph clustering in
  let k = Cluster.Clustering.num_clusters clustering in
  {
    state = CR.init g;
    clustering;
    colors = Array.make k (-1);
    base_domain = Array.init (Graph.n g) (Mask.mem cv.Cluster.Carving.domain);
    audit;
    work = workspace audit;
  }

type cert = {
  c_delta : CR.delta;
  c_halo : int;
  c_dirty : int list;
  c_carried : (int * int) list;
  c_fresh : int list;
  c_audit : Audit.t;
}

type report = {
  dirty_clusters : int;
  touched_nodes : int;
  touched_fraction : float;
  fresh_clusters : int;
  carried_clusters : int;
  seconds : float;
  cert : cert;
}

let repair ?(halo = 0) ~recarve session d =
  let t0 = Congest.Resource.now () in
  let ws = session.work in
  let st = CR.step session.state d in
  let k_old = Cluster.Clustering.num_clusters session.clustering in
  (match Audit.certs_by_id_into ws.old_certs session.audit with
  | Ok k when k = k_old -> ()
  | Ok k ->
      invalid_arg
        (Printf.sprintf
           "Repair.repair: session audit covers %d clusters, not %d" k k_old)
  | Error e -> invalid_arg ("Repair.repair: session audit: " ^ e));
  let old_certs = !(ws.old_certs) in
  let weak c = not old_certs.(c).Audit.strong in
  let pl =
    CR.plan ~halo ~weak
      ~color:(fun c -> session.colors.(c))
      ~old:session.clustering st d
  in
  let kind =
    match session.audit.Audit.kind with
    | Audit.Decomposition -> CR.Decomposition
    | Audit.Carving -> CR.Carving
  in
  let m =
    CR.merge ~scratch:ws.merge ~kind ~old:session.clustering
      ~color_of:(fun c -> session.colors.(c))
      ~plan:pl ~state:st ~recarve
  in
  let clustering = m.CR.clustering in
  let colors = m.CR.colors in
  let k_new = Cluster.Clustering.num_clusters clustering in
  let carried = m.CR.carried in
  let from_old = ws.from_old in
  Array.fill from_old 0 k_new (-1);
  List.iter (fun (o, nw) -> from_old.(nw) <- o) carried;
  let g = CR.graph st in
  let n = Graph.n g in
  (* untouched certificates are carried over verbatim (only the cluster
     id is renumbered; a cert keeping its id is reused as it is), and
     only touched clusters are re-certified, on the workspace's BFS
     scratch *)
  let certs = ref [] in
  for c = k_new - 1 downto 0 do
    let o = from_old.(c) in
    let cert =
      if o < 0 then
        Audit.cert_of_cluster ~scratch:ws.bfs clustering ~color:colors.(c) c
      else if o = c then old_certs.(o)
      else { (old_certs.(o)) with Audit.cluster = c }
    in
    certs := cert :: !certs
  done;
  let certs = !certs in
  (* audit domain: the original domain's survivors, plus anything the
     merge clustered (for decompositions this is exactly the survivor
     set; for partial-domain carvings a halo never reaches outside) *)
  let domain = ref [] and size = ref 0 and clustered = ref 0 in
  for v = n - 1 downto 0 do
    let c = Cluster.Clustering.cluster_of clustering v in
    if (session.base_domain.(v) && not (CR.is_down st v)) || c >= 0 then begin
      domain := v :: !domain;
      incr size;
      if c >= 0 then incr clustered
    end
  done;
  let domain = !domain in
  let dead = !size - !clustered in
  let num_colors =
    match kind with
    | CR.Carving -> 0
    | CR.Decomposition -> 1 + Array.fold_left max (-1) colors
  in
  let audit =
    {
      Audit.kind = session.audit.Audit.kind;
      n;
      certs;
      num_colors;
      domain;
      dead;
      dead_fraction = float_of_int dead /. float_of_int (max 1 !size);
    }
  in
  let cert =
    {
      c_delta = d;
      c_halo = halo;
      c_dirty = pl.CR.dirty;
      c_carried = carried;
      c_fresh = m.CR.fresh;
      c_audit = audit;
    }
  in
  let survivor_count = n - List.length (CR.down st) in
  let session' =
    {
      state = st;
      clustering;
      colors;
      base_domain = session.base_domain;
      audit;
      work = ws;
    }
  in
  ( session',
    {
      dirty_clusters = List.length pl.CR.dirty;
      touched_nodes = m.CR.touched_nodes;
      touched_fraction =
        float_of_int m.CR.touched_nodes /. float_of_int (max 1 survivor_count);
      fresh_clusters = List.length m.CR.fresh;
      carried_clusters = List.length carried;
      seconds = Congest.Resource.now () -. t0;
      cert;
    } )

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* [ids] then the [side] of every pair name each of 0..k-1 exactly once:
   k distinct in-range marks *)
let partitions k ids pairs side =
  let seen = Bytes.make k '\000' in
  let mark i =
    if i < 0 || i >= k || Bytes.get seen i <> '\000' then false
    else begin
      Bytes.set seen i '\001';
      true
    end
  in
  List.length ids + List.length pairs = k
  && List.for_all mark ids
  && List.for_all (fun p -> mark (side p)) pairs

(* [b] is [a] renumbered to [cluster]. A carried cert shares its lists
   with its predecessor (and is its predecessor when the id did not
   move), and [compare] (unlike [=]) returns at once on physically
   equal blocks, so each shared field costs one pointer test. The full
   record patterns make the compiler reject a cert field it forgets. *)
let carried_equal (a : Audit.cert) (b : Audit.cert) ~cluster =
  let same x y = compare x y = 0 in
  let {
    Audit.cluster = _;
    color;
    members;
    strong;
    tree;
    diameter_lb;
    lb_pair;
    diameter_ub;
  } =
    a
  in
  let {
    Audit.cluster = b_cluster;
    color = b_color;
    members = b_members;
    strong = b_strong;
    tree = b_tree;
    diameter_lb = b_lb;
    lb_pair = b_pair;
    diameter_ub = b_ub;
  } =
    b
  in
  b_cluster = cluster && b_color = color && b_strong = strong
  && b_lb = diameter_lb && same members b_members && same tree b_tree
  && same lb_pair b_pair && same diameter_ub b_ub

let verify_cert ~prev ~post c =
  let ws = prev.work in
  try
    let k_old = Cluster.Clustering.num_clusters prev.clustering in
    if not (partitions k_old c.c_dirty c.c_carried fst) then
      bad "dirty + carried do not partition the %d previous clusters" k_old;
    let k_new = List.length c.c_audit.Audit.certs in
    if not (partitions k_new c.c_fresh c.c_carried snd) then
      bad "fresh + carried do not partition the %d repaired clusters" k_new;
    let by_id what buf audit =
      match Audit.certs_by_id_into buf audit with
      | Ok k -> k
      | Error e -> bad "%s certificate: %s" what e
    in
    let k_prev = by_id "previous" ws.old_certs prev.audit in
    ignore (by_id "repaired" ws.new_certs c.c_audit : int);
    if k_prev <> k_old then
      bad "previous certificate covers %d clusters, not %d" k_prev k_old;
    (* the partitions put every carried pair in range *)
    let old_certs = !(ws.old_certs) and new_certs = !(ws.new_certs) in
    List.iter
      (fun (o, nw) ->
        if not (carried_equal old_certs.(o) new_certs.(nw) ~cluster:nw) then
          bad "carried cluster %d -> %d: certificate not identical" o nw)
      c.c_carried;
    let n = Graph.n (CR.graph prev.state) in
    if Graph.n post <> n then
      bad "post graph has %d nodes, not %d" (Graph.n post) n;
    match Audit.verify_with ws.verify post c.c_audit with
    | Ok () -> Ok ()
    | Error e -> Error (Printf.sprintf "merged audit rejected: %s" e)
  with Bad s -> Error s

(* ------------------------------------------------------------------ *)
(* Re-carve adapters over the algorithm registry                       *)
(* ------------------------------------------------------------------ *)

(* The re-carve region is rarely connected, and the registered engines
   are written for (and measured on) connected inputs — run them per
   component and renumber the labels densely. Singleton components skip
   the engine entirely. *)
let componentwise engine sub =
  let n = Graph.n sub in
  let labels = Array.make n (-1) in
  let colors = ref [] in
  let next = ref 0 in
  List.iter
    (fun comp ->
      match comp with
      | [ v ] ->
          labels.(v) <- !next;
          colors := 0 :: !colors;
          incr next
      | comp ->
          let csub, back = Subgraph.induce sub comp in
          let cl_labels, cl_colors = engine csub in
          Array.iteri
            (fun i l -> if l >= 0 then labels.(back.(i)) <- !next + l)
            cl_labels;
          Array.iter (fun col -> colors := col :: !colors) cl_colors;
          next := !next + Array.length cl_colors)
    (Components.components sub);
  (labels, Array.of_list (List.rev !colors))

let recarve_decomposer (a : Algorithms.decomposer) ~seed sub =
  componentwise
    (fun csub ->
      let d = a.Algorithms.run ~cost:(Congest.Cost.create ()) ~seed csub in
      let cl = Cluster.Decomposition.clustering d in
      let k = Cluster.Clustering.num_clusters cl in
      ( Array.init (Graph.n csub) (Cluster.Clustering.cluster_of cl),
        Array.init k (Cluster.Decomposition.color_of_cluster d) ))
    sub

let recarve_carver (a : Algorithms.carver) ~seed ~epsilon sub =
  componentwise
    (fun csub ->
      let cv =
        a.Algorithms.run ~cost:(Congest.Cost.create ()) ~seed csub ~epsilon
      in
      let cl = cv.Cluster.Carving.clustering in
      let k = Cluster.Clustering.num_clusters cl in
      ( Array.init (Graph.n csub) (Cluster.Clustering.cluster_of cl),
        Array.make k (-1) ))
    sub
