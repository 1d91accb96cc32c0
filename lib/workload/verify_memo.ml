open Dsgraph

(* What [Repair.verify_cert] last accepted: an audit, the graph it
   holds on, and facts about it the incremental verify reads. *)
type memo = {
  m_audit : Audit.t;
  m_graph : Graph.t;
  m_clustered : int;  (* members over all clusters *)
  m_size : int;  (* domain nodes *)
  m_sorted : bool;  (* the domain ascends strictly *)
}

type t = {
  mutable memo : memo option;
  owner : int array;  (* node -> first member of its memo cluster, or -1 *)
  color : int array;  (* node -> its memo cluster's color *)
  in_dom : Bytes.t;  (* node in the memo's domain *)
  hit : int array;  (* by first member: stamp of a cluster to re-check *)
  mutable stamp : int;  (* the last stamp written to [hit] *)
  mutable accepts : int;
}

let create n =
  {
    memo = None;
    owner = Array.make n (-1);
    color = Array.make n 0;
    in_dom = Bytes.make n '\000';
    hit = Array.make n (-1);
    stamp = -1;
    accepts = 0;
  }

let fast_accepts t = t.accepts

let rec ints_equal (a : int list) (b : int list) =
  match (a, b) with
  | [], [] -> true
  | x :: a, y :: b -> x = y && ints_equal a b
  | _ -> false

let rec pairs_equal (a : (int * int) list) (b : (int * int) list) =
  match (a, b) with
  | [], [] -> true
  | (x, x') :: a, (y, y') :: b -> x = y && x' = y' && pairs_equal a b
  | _ -> false

let tree_equal (a : Audit.witness option) (b : Audit.witness option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a.Audit.w_root = b.Audit.w_root
      && a.Audit.w_height = b.Audit.w_height
      && pairs_equal a.Audit.w_parents b.Audit.w_parents
  | _ -> false

(* [b] is [a] renumbered to [cluster]: every other field is equal, by
   typed equality. Lists that [Repair.repair] shared are equal by [==];
   others are walked, so all carried certs together cost at most O(n).
   The full record patterns make the compiler reject a cert field it
   forgets. *)
let carried_equal (a : Audit.cert) (b : Audit.cert) ~cluster =
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
  && b_lb = diameter_lb
  && fst b_pair = fst lb_pair
  && snd b_pair = snd lb_pair
  && Option.equal Int.equal b_ub diameter_ub
  && (b_members == members || ints_equal b_members members)
  && (b_tree == tree || tree_equal b_tree tree)

let rec ascending last = function
  | [] -> true
  | v :: rest -> v > last && ascending v rest

(* every member points at its cluster's first member and carries its
   color *)
let remember t post (a : Audit.t) =
  let n = Graph.n post in
  Array.fill t.owner 0 n (-1);
  Bytes.fill t.in_dom 0 n '\000';
  List.iter (fun v -> Bytes.set t.in_dom v '\001') a.Audit.domain;
  let clustered = ref 0 in
  List.iter
    (fun (cert : Audit.cert) ->
      let first = List.hd cert.Audit.members in
      List.iter
        (fun v ->
          t.owner.(v) <- first;
          t.color.(v) <- cert.Audit.color;
          incr clustered)
        cert.Audit.members)
    a.Audit.certs;
  t.memo <-
    Some
      {
        m_audit = a;
        m_graph = post;
        m_clustered = !clustered;
        m_size = List.length a.Audit.domain;
        m_sorted = ascending (-1) a.Audit.domain;
      }

(* ---- the incremental verify ----

   [Audit.verify_with] re-checks every cluster of the merged audit. When
   the previous audit is the one the lineage last accepted, on the graph
   it was accepted on (the memo, by physical identity), most of that
   work has a known outcome: a carried certificate equals an accepted
   one, and its checks read only its own members' rows. The fast path
   re-checks what the delta can change and answers only "accept" or
   "don't know" (DESIGN.md §11). The changed rows come from the two
   graphs ([Graph.diff_rows]), never from the certificate's own
   [c_delta]. *)

exception Unknown

let unknown_if b = if b then raise Unknown

let rec unclaim owner removed = function
  | [] -> removed
  | v :: rest ->
      owner.(v) <- -1;
      unclaim owner (removed + 1) rest

(* One walk of both certificate lists in id order, against the carried
   pairs and the dirty and fresh ids, all ascending: every old id is the
   next carried or the next dirty one, every new id the next carried or
   the next fresh one, every new certificate carries its position, and
   every carried one equals its predecessor. That is what the locality
   checks of [Repair.verify_cert] (the partitions, [Audit.cert_ids] and
   the carried comparison) establish, for lists in the order a repair
   makes, reading each certificate record once where those passes read
   it three times (the cost is in DESIGN.md §11). Dirty clusters give up
   their members; fresh certificates, and carried ones that are weak or
   hold a changed node, are collected for the re-check. *)
let rec walk t ~stamp ~color_ok olds i news j dirty fresh carried removed todo
    recheck =
  match (carried, olds, news) with
  | (o, nw) :: carried, old :: olds, (cert : Audit.cert) :: news
    when o = i && nw = j ->
      unknown_if
        (cert.Audit.cluster <> j
        || (not (old == cert || carried_equal old cert ~cluster:j))
        || not (color_ok cert));
      let recheck =
        if (not cert.Audit.strong) || t.hit.(List.hd cert.Audit.members) = stamp
        then cert :: recheck
        else recheck
      in
      walk t ~stamp ~color_ok olds (i + 1) news (j + 1) dirty fresh carried
        removed todo recheck
  | _ -> (
      match (dirty, olds) with
      | d :: dirty, (old : Audit.cert) :: olds when d = i ->
          walk t ~stamp ~color_ok olds (i + 1) news j dirty fresh carried
            (unclaim t.owner removed old.Audit.members)
            todo recheck
      | _ -> (
          match (fresh, news) with
          | f :: fresh, (cert : Audit.cert) :: news when f = j ->
              unknown_if
                (cert.Audit.cluster <> j
                || cert.Audit.members = []
                || not (color_ok cert));
              walk t ~stamp ~color_ok olds i news (j + 1) dirty fresh carried
                removed (cert :: todo) recheck
          | _ -> (
              match (olds, news, dirty, fresh, carried) with
              | [], [], [], [], [] -> (removed, todo, recheck, i)
              | _ -> raise Unknown)))

(* a fresh cluster's members: in range, in the domain and unowned *)
let rec claim t ~n ~first ~color count = function
  | [] -> count
  | v :: rest ->
      unknown_if
        (v < 0 || v >= n
        || Bytes.get t.in_dom v = '\000'
        || t.owner.(v) >= 0);
      t.owner.(v) <- first;
      t.color.(v) <- color;
      claim t ~n ~first ~color (count + 1) rest

(* no arc at a member joins two distinct clusters of one color *)
let rec separated t (offsets : Graph.int_array1) (targets : Graph.int_array1)
    = function
  | [] -> ()
  | u :: rest ->
      let ou = t.owner.(u) and cu = t.color.(u) in
      for i = offsets.{u} to offsets.{u + 1} - 1 do
        let v = targets.{i} in
        let ov = t.owner.(v) in
        unknown_if (ov >= 0 && ov <> ou && t.color.(v) = cu)
      done;
      separated t offsets targets rest

(* The new domain against the memo's, both strictly ascending: a node
   that leaves must not be a carried member (the dirty clusters have
   given theirs up), and [in_dom] follows. The size, by the memo's. *)
let rec domains t ~n last size olds news =
  match news with
  | y :: news_rest when (match olds with x :: _ -> y <= x | [] -> true) -> (
      unknown_if (y <= last || y >= n);
      match olds with
      | x :: olds_rest when x = y -> domains t ~n y size olds_rest news_rest
      | _ ->
          Bytes.set t.in_dom y '\001';
          domains t ~n y (size + 1) olds news_rest)
  | _ -> (
      match olds with
      | [] -> size
      | x :: olds_rest ->
          unknown_if (t.owner.(x) >= 0);
          Bytes.set t.in_dom x '\000';
          domains t ~n last (size - 1) olds_rest news)

(* Accepts [b] when the walk holds and the memo's audit holds on
   [post] but for what the edits changed. Besides the walk's checks:
   the domain, the fresh clusters' claims, the dead count, and, at fresh
   clusters, weak ones and ones holding an endpoint of a changed edge,
   separation at every member's arcs and the witnesses. Moves the owner
   index to [b] as it goes; on [false] the index is stale and the memo
   is dropped. *)
let incremental t verify ~k_old ~post ~dirty ~carried ~fresh (b : Audit.t)
    memo =
  let a = memo.m_audit and n = Graph.n post in
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  try
    unknown_if
      (Graph.n memo.m_graph <> n
      || b.Audit.n <> n
      || b.Audit.kind <> a.Audit.kind
      || not memo.m_sorted);
    unknown_if
      (not
         (Graph.diff_rows memo.m_graph post (fun u ->
              let o = t.owner.(u) in
              if o >= 0 then t.hit.(o) <- stamp)));
    let color_ok (cert : Audit.cert) =
      match b.Audit.kind with
      | Audit.Decomposition ->
          cert.Audit.color >= 0 && cert.Audit.color < b.Audit.num_colors
      | Audit.Carving -> cert.Audit.color = -1
    in
    let removed, todo, touched, k_prev =
      walk t ~stamp ~color_ok a.Audit.certs 0 b.Audit.certs 0 dirty fresh
        carried 0 [] []
    in
    unknown_if (k_prev <> k_old);
    let size = domains t ~n (-1) memo.m_size a.Audit.domain b.Audit.domain in
    let added =
      List.fold_left
        (fun added (cert : Audit.cert) ->
          claim t ~n
            ~first:(List.hd cert.Audit.members)
            ~color:cert.Audit.color added cert.Audit.members)
        0 todo
    in
    let clustered = memo.m_clustered - removed + added in
    let dead = size - clustered in
    unknown_if (dead <> b.Audit.dead);
    unknown_if (b.Audit.kind = Audit.Decomposition && dead > 0);
    let fraction =
      if size = 0 then 0.0 else float_of_int dead /. float_of_int size
    in
    unknown_if (Float.abs (fraction -. b.Audit.dead_fraction) > 1e-9);
    let offsets = Graph.offsets post and targets = Graph.targets post in
    let recheck (cert : Audit.cert) =
      separated t offsets targets cert.Audit.members;
      let id = List.hd cert.Audit.members in
      unknown_if (not (Audit.witness_ok verify post ~owner:t.owner ~id cert))
    in
    List.iter recheck todo;
    List.iter recheck touched;
    t.memo <-
      Some
        {
          m_audit = b;
          m_graph = post;
          m_clustered = clustered;
          m_size = size;
          m_sorted = true;
        };
    true
  with Unknown -> false

let accept t verify ~prev ~prev_graph ~k_old ~post ~dirty ~carried ~fresh b =
  match t.memo with
  | Some memo when memo.m_audit == prev && memo.m_graph == prev_graph ->
      if incremental t verify ~k_old ~post ~dirty ~carried ~fresh b memo then begin
        t.accepts <- t.accepts + 1;
        true
      end
      else begin
        t.memo <- None;
        false
      end
  | _ -> false
