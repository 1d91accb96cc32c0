open Dsgraph
module CR = Cluster.Repair

(* Scratch of one session lineage: what [repair] and [verify_cert]
   would otherwise allocate per step, and the incremental verify's
   memo. Holds no result. *)
type workspace = {
  verify : Audit.workspace;
  bfs : Bfs.scratch;  (* certifies fresh clusters *)
  merge : CR.scratch;
  from_old : int array;  (* new cluster id -> old id, or -1 *)
  old_marks : int array ref;  (* [partitions]' stamps, by old cluster id *)
  new_marks : int array ref;  (* and by new cluster id *)
  mutable stamp : int;  (* the last stamp written *)
  memo : Verify_memo.t;
}

let workspace n =
  {
    verify = Audit.workspace n;
    bfs = Bfs.scratch n;
    merge = CR.scratch n;
    from_old = Array.make n (-1);
    old_marks = ref (Array.make n (-1));
    new_marks = ref (Array.make n (-1));
    stamp = -1;
    memo = Verify_memo.create n;
  }

(* [rest] is the tail of [all] from index [i] on; the tail from index
   [j] on, walking forward from [rest], or from the head when [j < i].
   Walks in ascending [j] cost one pass over [all] in total. *)
let seek all rest i j =
  let rec skip l j = if j = 0 then l else skip (List.tl l) (j - 1) in
  if j < i then skip all j else skip rest (j - i)

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
    work = workspace (Graph.n g);
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
    work = workspace (Graph.n g);
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
  let old_certs = session.audit.Audit.certs in
  (* one walk checks the ids as [Audit.cert_ids] does and collects the
     weakly certified clusters *)
  let rec weak_ids i weak = function
    | [] ->
        if i <> k_old then
          invalid_arg
            (Printf.sprintf
               "Repair.repair: session audit covers %d clusters, not %d" i
               k_old);
        weak
    | (c : Audit.cert) :: rest ->
        if c.Audit.cluster <> i then
          Result.iter_error
            (fun e -> invalid_arg ("Repair.repair: session audit: " ^ e))
            (Audit.cert_ids session.audit);
        weak_ids (i + 1) (if c.Audit.strong then weak else i :: weak) rest
  in
  let pl =
    CR.plan ~halo ~scratch:ws.merge ~weak:(weak_ids 0 [] old_certs)
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
     scratch. The list is built in new-id order; [olds] is the old list
     from id [i] on, and the renumbering keeps carried ids in old-id
     order, so the walk over it only moves forward (a carried id below
     [i] would restart it from the head). *)
  let[@tail_mod_cons] rec build c olds i =
    if c = k_new then []
    else
      let o = from_old.(c) in
      if o < 0 then
        Audit.cert_of_cluster ~scratch:ws.bfs clustering ~color:colors.(c) c
        :: build (c + 1) olds i
      else
        let olds = seek old_certs olds i o in
        let old = List.hd olds in
        (if o = c then old else { old with Audit.cluster = c })
        :: build (c + 1) (List.tl olds) (o + 1)
  in
  let certs = build 0 old_certs 0 in
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
    | CR.Decomposition -> 1 + Array.fold_left Int.max (-1) colors
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
      (* every new id is carried or fresh *)
      carried_clusters = k_new - List.length m.CR.fresh;
      seconds = Congest.Resource.now () -. t0;
      cert;
    } )

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* [mark] sets [marks.(i)] to [stamp]: false when [i] is out of
   [0, k) or already marked *)
let mark (marks : int array) stamp k i =
  i >= 0 && i < k
  && marks.(i) <> stamp
  &&
  (marks.(i) <- stamp;
   true)

(* [count] plus the number of ids marked, or -1 at the first id that
   cannot be *)
let rec mark_all marks stamp k count = function
  | [] -> count
  | i :: rest ->
      if mark marks stamp k i then mark_all marks stamp k (count + 1) rest
      else -1

(* [c_dirty] and the old sides of [c_carried] name each of
   0..k_old-1 exactly once, and [c_fresh] and the new sides each of
   0..k_new-1: k distinct in-range marks per side. One walk of
   [c_carried] marks both sides. Each call writes a stamp of its own,
   so the marks are never cleared. *)
let partitions ws ~k_old ~k_new c =
  let fit marks k =
    if Array.length !marks < k then marks := Array.make k (-1)
  in
  fit ws.old_marks k_old;
  fit ws.new_marks k_new;
  ws.stamp <- ws.stamp + 1;
  let stamp = ws.stamp and om = !(ws.old_marks) and nm = !(ws.new_marks) in
  let rec walk ok_old ok_new count = function
    | [] -> (ok_old, ok_new, count)
    | (o, nw) :: rest ->
        walk
          (ok_old && mark om stamp k_old o)
          (ok_new && mark nm stamp k_new nw)
          (count + 1) rest
  in
  let ok_old, ok_new, carried = walk true true 0 c.c_carried in
  let side ok marks k ids = ok && mark_all marks stamp k carried ids = k in
  (side ok_old om k_old c.c_dirty, side ok_new nm k_new c.c_fresh)

(* The checks in full: the locality claim, then [Audit.verify_with];
   an accepted audit becomes the memo *)
let verify_full ~prev ~post c =
  let ws = prev.work in
  try
    let k_old = Cluster.Clustering.num_clusters prev.clustering in
    let k_new = List.length c.c_audit.Audit.certs in
    let old_ok, new_ok = partitions ws ~k_old ~k_new c in
    if not old_ok then
      bad "dirty + carried do not partition the %d previous clusters" k_old;
    if not new_ok then
      bad "fresh + carried do not partition the %d repaired clusters" k_new;
    let ids what audit =
      match Audit.cert_ids audit with
      | Ok k -> k
      | Error e -> bad "%s certificate: %s" what e
    in
    let k_prev = ids "previous" prev.audit in
    ignore (ids "repaired" c.c_audit : int);
    if k_prev <> k_old then
      bad "previous certificate covers %d clusters, not %d" k_prev k_old;
    (* the partitions put every carried pair in range, and both lists
       hold their certificates in id order *)
    let all_old = prev.audit.Audit.certs and all_new = c.c_audit.Audit.certs in
    let rec check olds i news j = function
      | [] -> ()
      | (o, nw) :: rest ->
          let olds = seek all_old olds i o and news = seek all_new news j nw in
          if
            not
              (Verify_memo.carried_equal (List.hd olds) (List.hd news)
                 ~cluster:nw)
          then bad "carried cluster %d -> %d: certificate not identical" o nw;
          check olds o news nw rest
    in
    check all_old 0 all_new 0 c.c_carried;
    let n = Graph.n (CR.graph prev.state) in
    if Graph.n post <> n then
      bad "post graph has %d nodes, not %d" (Graph.n post) n;
    match Audit.verify_with ws.verify post c.c_audit with
    | Ok () ->
        Verify_memo.remember ws.memo post c.c_audit;
        Ok ()
    | Error e -> Error (Printf.sprintf "merged audit rejected: %s" e)
  with Bad s -> Error s

(* On a memo hit the incremental verify may accept; otherwise, and
   whenever it does not know, the checks run in full, so every
   rejection and its message are theirs. *)
let verify_cert ~prev ~post c =
  let ws = prev.work in
  if
    Verify_memo.accept ws.memo ws.verify ~prev:prev.audit
      ~prev_graph:(CR.graph prev.state)
      ~k_old:(Cluster.Clustering.num_clusters prev.clustering)
      ~post ~dirty:c.c_dirty ~carried:c.c_carried ~fresh:c.c_fresh c.c_audit
  then Ok ()
  else verify_full ~prev ~post c

let fast_accepts s = Verify_memo.fast_accepts s.work.memo

(* ------------------------------------------------------------------ *)
(* Re-carve adapters over the algorithm registry                       *)
(* ------------------------------------------------------------------ *)

(* The re-carve region is rarely connected, and the registered engines
   are written for (and measured on) connected inputs — run them per
   component and renumber the labels densely. Singleton components skip
   the engine entirely. [engine] returns a component's clustering and
   the color of each of its clusters; labels are written straight into
   the region's array. *)
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
          let cl, color_of = engine csub in
          Array.iteri
            (fun i v ->
              let l = Cluster.Clustering.cluster_of cl i in
              if l >= 0 then labels.(v) <- !next + l)
            back;
          let k = Cluster.Clustering.num_clusters cl in
          for c = 0 to k - 1 do
            colors := color_of c :: !colors
          done;
          next := !next + k)
    (Components.components sub);
  (labels, Array.of_list (List.rev !colors))

(* one meter serves every component of a call: nothing reads it, and
   the engines' output does not depend on what it holds *)
let recarve_decomposer (a : Algorithms.decomposer) ~seed sub =
  let cost = Congest.Cost.create () in
  componentwise
    (fun csub ->
      let d = a.Algorithms.run ~cost ~seed csub in
      ( Cluster.Decomposition.clustering d,
        Cluster.Decomposition.color_of_cluster d ))
    sub

let recarve_carver (a : Algorithms.carver) ~seed ~epsilon sub =
  let cost = Congest.Cost.create () in
  componentwise
    (fun csub ->
      let cv = a.Algorithms.run ~cost ~seed csub ~epsilon in
      (cv.Cluster.Carving.clustering, fun _ -> -1))
    sub
