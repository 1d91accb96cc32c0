(* Test-only oracle: [Workload.Repair.repair] and [verify_cert] as they
   were before sessions shared a workspace, kept as they were in
   substance, with the [Cluster.Repair.merge] they called. Every step
   rebuilds from scratch: merge labels every node and renumbers them
   with [Clustering.make], repair indexes the certificates with
   [Audit.certs_by_id], re-certifies over a fresh [Bfs.scratch] and
   rebuilds the whole certificate list, and [verify_cert] runs
   [Audit.verify] on fresh buffers. test_repair.ml diffs the lineage
   workspace path against it. Sessions are plain records here; certs
   and reports are [Workload.Repair]'s own types, so either side's
   certificate can be checked by either [verify_cert]. *)

open Dsgraph
module CR = Cluster.Repair
module Audit = Workload.Audit
module Repair = Workload.Repair

type session = {
  state : CR.state;
  clustering : Cluster.Clustering.t;
  colors : int array;
  base_domain : bool array;
  audit : Audit.t;
}

let of_session (s : Repair.session) =
  {
    state = s.Repair.state;
    clustering = s.Repair.clustering;
    colors = s.Repair.colors;
    base_domain = s.Repair.base_domain;
    audit = s.Repair.audit;
  }

let flags k = Bytes.make k '\000'
let flagged f i = Bytes.get f i <> '\000'
let flag f i b = Bytes.set f i (if b then '\001' else '\000')

type merged = {
  clustering : Cluster.Clustering.t;
  colors : int array;
  old_to_new : int array;
  fresh : int list;
  touched_nodes : int;
}

let merge ~kind ~old ~color_of ~(plan : CR.plan) ~state:st ~recarve =
  let module Cl = Cluster.Clustering in
  let current = CR.graph st in
  let n = Graph.n current in
  let k_old = Cl.num_clusters old in
  let dirty = flags k_old in
  List.iter (fun c -> flag dirty c true) plan.CR.dirty;
  let in_region = flags n in
  List.iter (fun v -> flag in_region v true) plan.CR.region;
  let untouched v =
    let c = Cl.cluster_of old v in
    c >= 0 && (not (flagged dirty c)) && not (flagged in_region v)
  in
  let withheld = flags n in
  (match kind with
  | CR.Decomposition -> ()
  | CR.Carving ->
      List.iter
        (fun v ->
          Graph.iter_neighbors current v (fun w ->
              if untouched w then flag withheld v true))
        plan.CR.region);
  let domain =
    List.filter
      (fun v -> (not (flagged withheld v)) && not (CR.is_down st v))
      plan.CR.region
  in
  let labels = Array.make n (-1) in
  for v = 0 to n - 1 do
    if untouched v && not (CR.is_down st v) then
      labels.(v) <- Cl.cluster_of old v
  done;
  if domain <> [] then begin
    let sub, back = Subgraph.induce current domain in
    let sub_labels, _sub_colors = recarve sub in
    if Array.length sub_labels <> Graph.n sub then
      invalid_arg "Repair.merge: recarve returned wrong label count";
    Array.iteri
      (fun i l ->
        if l >= 0 then labels.(back.(i)) <- k_old + l
        else if kind = CR.Decomposition then
          invalid_arg
            (Printf.sprintf
               "Repair.merge: decomposition recarve left node %d unclustered"
               back.(i)))
      sub_labels
  end;
  let clustering = Cl.make current ~cluster_of:labels in
  let k_new = Cl.num_clusters clustering in
  let old_to_new = Array.make k_old (-1) in
  let from_old = Array.make k_new (-1) in
  for c = 0 to k_new - 1 do
    match Cl.members clustering c with
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
  let colors = Array.make k_new (-1) in
  (match kind with
  | CR.Carving -> ()
  | CR.Decomposition ->
      for c = 0 to k_new - 1 do
        if from_old.(c) >= 0 then colors.(c) <- color_of from_old.(c)
      done;
      List.iter
        (fun c ->
          let banned = Hashtbl.create 8 in
          List.iter
            (fun v ->
              Graph.iter_neighbors current v (fun w ->
                  let cw = Cl.cluster_of clustering w in
                  if cw >= 0 && cw <> c && colors.(cw) >= 0 then
                    Hashtbl.replace banned colors.(cw) ()))
            (Cl.members clustering c);
          let rec first i = if Hashtbl.mem banned i then first (i + 1) else i in
          colors.(c) <- first 0)
        !fresh);
  {
    clustering;
    colors;
    old_to_new;
    fresh = !fresh;
    touched_nodes = List.length plan.CR.region;
  }

let repair ?(halo = 0) ~recarve (session : session) d =
  let st = CR.step session.state d in
  let old_certs =
    match Audit.certs_by_id session.audit with
    | Ok a -> a
    | Error e -> invalid_arg ("Repair.repair: session audit: " ^ e)
  in
  let weak =
    List.filter
      (fun c -> not old_certs.(c).Audit.strong)
      (List.init (Array.length old_certs) Fun.id)
  in
  let pl =
    CR.plan ~halo
      ~scratch:(CR.scratch (Graph.n (CR.graph st)))
      ~weak
      ~color:(fun c -> session.colors.(c))
      ~old:session.clustering st d
  in
  let kind =
    match session.audit.Audit.kind with
    | Audit.Decomposition -> CR.Decomposition
    | Audit.Carving -> CR.Carving
  in
  let m =
    merge ~kind ~old:session.clustering
      ~color_of:(fun c -> session.colors.(c))
      ~plan:pl ~state:st ~recarve
  in
  let clustering = m.clustering in
  let colors = m.colors in
  let k_new = Cluster.Clustering.num_clusters clustering in
  let carried = ref [] in
  for o = Array.length m.old_to_new - 1 downto 0 do
    let nw = m.old_to_new.(o) in
    if nw >= 0 then carried := (o, nw) :: !carried
  done;
  let carried = !carried in
  let from_old = Array.make (max k_new 1) (-1) in
  List.iter (fun (o, nw) -> from_old.(nw) <- o) carried;
  let g = CR.graph st in
  let n = Graph.n g in
  let scratch = Bfs.scratch n in
  let certs =
    List.init k_new (fun c ->
        let o = from_old.(c) in
        if o >= 0 then { (old_certs.(o)) with Audit.cluster = c }
        else Audit.cert_of_cluster ~scratch clustering ~color:colors.(c) c)
  in
  let domain = ref [] in
  for v = n - 1 downto 0 do
    if
      (session.base_domain.(v) && not (CR.is_down st v))
      || Cluster.Clustering.cluster_of clustering v >= 0
    then domain := v :: !domain
  done;
  let domain = !domain in
  let dead =
    List.length domain - Cluster.Clustering.clustered_count clustering
  in
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
      dead_fraction =
        float_of_int dead /. float_of_int (max 1 (List.length domain));
    }
  in
  let cert =
    {
      Repair.c_delta = d;
      c_halo = halo;
      c_dirty = pl.CR.dirty;
      c_carried = carried;
      c_fresh = m.fresh;
      c_audit = audit;
    }
  in
  let survivor_count = n - List.length (CR.down st) in
  let base_domain = session.base_domain in
  ( { state = st; clustering; colors; base_domain; audit },
    {
      Repair.dirty_clusters = List.length pl.CR.dirty;
      touched_nodes = m.touched_nodes;
      touched_fraction =
        float_of_int m.touched_nodes /. float_of_int (max 1 survivor_count);
      fresh_clusters = List.length m.fresh;
      carried_clusters = List.length carried;
      seconds = 0.0;
      cert;
    } )

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

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

let carried_equal (a : Audit.cert) (b : Audit.cert) ~cluster =
  b.Audit.cluster = cluster && { b with Audit.cluster = a.Audit.cluster } = a

let verify_cert ~(prev : session) ~post (c : Repair.cert) =
  try
    let k_old = Cluster.Clustering.num_clusters prev.clustering in
    if not (partitions k_old c.Repair.c_dirty c.Repair.c_carried fst) then
      bad "dirty + carried do not partition the %d previous clusters" k_old;
    let k_new = List.length c.Repair.c_audit.Audit.certs in
    if not (partitions k_new c.Repair.c_fresh c.Repair.c_carried snd) then
      bad "fresh + carried do not partition the %d repaired clusters" k_new;
    let by_id what audit =
      match Audit.certs_by_id audit with
      | Ok a -> a
      | Error e -> bad "%s certificate: %s" what e
    in
    let old_certs = by_id "previous" prev.audit in
    let new_certs = by_id "repaired" c.Repair.c_audit in
    if Array.length old_certs <> k_old then
      bad "previous certificate covers %d clusters, not %d"
        (Array.length old_certs) k_old;
    List.iter
      (fun (o, nw) ->
        if not (carried_equal old_certs.(o) new_certs.(nw) ~cluster:nw) then
          bad "carried cluster %d -> %d: certificate not identical" o nw)
      c.Repair.c_carried;
    match Audit.verify post c.Repair.c_audit with
    | Ok () -> Ok ()
    | Error e -> Error (Printf.sprintf "merged audit rejected: %s" e)
  with Bad s -> Error s
