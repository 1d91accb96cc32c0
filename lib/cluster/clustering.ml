open Dsgraph

type t = {
  graph : Graph.t;
  cluster_of : int array;
  num_clusters : int;
  member_lists : int list array; (* sorted members, lazily computed eagerly *)
}

(* Labels are renumbered in order of first appearance through an
   open-addressing table (Fibonacci hashing, linear probing, doubled
   when half full) holding the first node seen with each label: the
   label is read back from [cluster_of] and the id from [normalized].
   The table is O(k) words for k clusters, whatever the labels are.
   The member lists come from a counting sort into one int array, each
   list consed from its slice and stored once. *)

(* slot of label [c] in [table], or the empty slot where it goes *)
let rec slot table ~cluster_of c i =
  let v = table.(i) in
  if v < 0 || cluster_of.(v) = c then i
  else slot table ~cluster_of c ((i + 1) land (Array.length table - 1))

let hash c ~bits = (c * 0x278DDE6E5FD29F05) lsr (63 - bits)

let make g ~cluster_of =
  let n = Graph.n g in
  if Array.length cluster_of <> n then
    invalid_arg "Clustering.make: array length mismatch";
  let bits = ref 4 in
  let table = ref (Array.make (1 lsl !bits) (-1)) in
  let normalized = Array.make n (-1) in
  let k = ref 0 in
  for v = 0 to n - 1 do
    let c = cluster_of.(v) in
    if c >= 0 then begin
      let i = slot !table ~cluster_of c (hash c ~bits:!bits) in
      if !table.(i) >= 0 then normalized.(v) <- normalized.(!table.(i))
      else begin
        !table.(i) <- v;
        normalized.(v) <- !k;
        incr k;
        if 2 * !k > Array.length !table then begin
          let old = !table in
          incr bits;
          table := Array.make (1 lsl !bits) (-1);
          Array.iter
            (fun u ->
              if u >= 0 then
                !table.(slot !table ~cluster_of cluster_of.(u)
                          (hash cluster_of.(u) ~bits:!bits)) <- u)
            old
        end
      end
    end
  done;
  let k = !k in
  (* pos.(c) ends as the start of c's slice of [order]; pos.(k) is the
     end of the last one *)
  let pos = Array.make (k + 1) 0 in
  Array.iter (fun c -> if c >= 0 then pos.(c) <- pos.(c) + 1) normalized;
  for c = 1 to k do
    pos.(c) <- pos.(c) + pos.(c - 1)
  done;
  let order = Array.make pos.(k) 0 in
  for v = n - 1 downto 0 do
    let c = normalized.(v) in
    if c >= 0 then begin
      pos.(c) <- pos.(c) - 1;
      order.(pos.(c)) <- v
    end
  done;
  (* filled from [], not from a young list: a long array made from a
     young value costs a forced minor collection *)
  let member_lists = Array.make k [] in
  for c = 0 to k - 1 do
    let l = ref [] in
    for i = pos.(c + 1) - 1 downto pos.(c) do
      l := order.(i) :: !l
    done;
    member_lists.(c) <- !l
  done;
  { graph = g; cluster_of = normalized; num_clusters = k; member_lists }

(* [members] must be non-empty, strictly increasing and owned by [c];
   returns how many there are *)
let rec count_members cluster_of c ~prev acc = function
  | [] -> acc
  | v :: rest ->
      if v <= prev || v >= Array.length cluster_of || cluster_of.(v) <> c then
        invalid_arg "Clustering.of_parts: member lists disagree with labels";
      count_members cluster_of c ~prev:v (acc + 1) rest

let of_parts g ~cluster_of ~members =
  let n = Graph.n g in
  if Array.length cluster_of <> n then
    invalid_arg "Clustering.of_parts: array length mismatch";
  let k = Array.length members in
  let listed = ref 0 and first = ref (-1) in
  for c = 0 to k - 1 do
    match members.(c) with
    | [] -> invalid_arg "Clustering.of_parts: empty cluster"
    | v :: _ ->
        if v <= !first then
          invalid_arg "Clustering.of_parts: ids not in first-appearance order";
        first := v;
        listed := count_members cluster_of c ~prev:(-1) !listed members.(c)
  done;
  let clustered = ref 0 in
  Array.iter
    (fun c ->
      if c < -1 || c >= k then
        invalid_arg "Clustering.of_parts: cluster id out of range";
      if c >= 0 then incr clustered)
    cluster_of;
  if !clustered <> !listed then
    invalid_arg "Clustering.of_parts: member lists disagree with labels";
  { graph = g; cluster_of; num_clusters = k; member_lists = members }

let graph t = t.graph
let cluster_of t v = t.cluster_of.(v)
let num_clusters t = t.num_clusters
let members t c = t.member_lists.(c)
let clusters t = Array.to_list t.member_lists
let sizes t = Array.map List.length t.member_lists

let clustered_count t =
  Array.fold_left (fun acc l -> acc + List.length l) 0 t.member_lists

let unclustered t =
  let acc = ref [] in
  for v = Graph.n t.graph - 1 downto 0 do
    if t.cluster_of.(v) < 0 then acc := v :: !acc
  done;
  !acc

let adjacent_cluster_pairs t =
  let seen = Hashtbl.create 16 in
  Graph.iter_edges t.graph (fun u v ->
      let cu = t.cluster_of.(u) and cv = t.cluster_of.(v) in
      if cu >= 0 && cv >= 0 && cu <> cv then begin
        let key = (min cu cv, max cu cv) in
        if not (Hashtbl.mem seen key) then Hashtbl.add seen key ()
      end);
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let non_adjacent t = adjacent_cluster_pairs t = []

let strong_diameter t c = Bfs.diameter_of_set t.graph t.member_lists.(c)

let max_strong_diameter t =
  let worst = ref 0 in
  let disconnected = ref false in
  for c = 0 to t.num_clusters - 1 do
    match strong_diameter t c with
    | -1 -> disconnected := true
    | d -> if d > !worst then worst := d
  done;
  if !disconnected then -1 else !worst

let weak_diameter t c = Bfs.weak_diameter_of_set t.graph t.member_lists.(c)

let max_weak_diameter t =
  let worst = ref 0 in
  let disconnected = ref false in
  for c = 0 to t.num_clusters - 1 do
    match weak_diameter t c with
    | -1 -> disconnected := true
    | d -> if d > !worst then worst := d
  done;
  if !disconnected then -1 else !worst

(* Strong (member-confined) searches run Bfs.restricted_into with
   membership read off cluster_of: O(cluster volume) instead of O(n) per
   cluster, so whole-decomposition sweeps stay linear even with 10^5
   singleton clusters. The caller's scratch is reused across clusters.
   Distances and the min-id parent one layer up equal those of the
   masked BFS (weak_* with the member mask), so results are identical. *)

let restricted ~scratch t c source =
  Bfs.restricted_into t.graph ~owner:t.cluster_of ~id:c
    ~members:t.member_lists.(c) ~source scratch

(* farthest member from [source] (first in member order on ties) after
   a restricted search from it; None when some member is unreached *)
let farthest (s : Bfs.scratch) members source =
  let rec go best_v best_d = function
    | [] -> Some (best_v, best_d)
    | v :: rest ->
        let d = s.Bfs.dist.(v) in
        if d < 0 then None
        else if d > best_d then go v d rest
        else go best_v best_d rest
  in
  go source 0 members

(* restricted search from [source], then [farthest], then release *)
let sweep ~scratch t c members source =
  let k = restricted ~scratch t c source in
  let r = farthest scratch members source in
  Bfs.release scratch k;
  r

let strong_diameter_estimate ~scratch t c =
  match t.member_lists.(c) with
  | [] | [ _ ] -> 0
  | [ u; v ] -> if Graph.is_edge t.graph u v then 1 else -1
  | first :: _ as members -> (
      match sweep ~scratch t c members first with
      | None -> -1
      | Some (far, d1) -> (
          match sweep ~scratch t c members far with
          | None -> -1
          | Some (_, d2) -> max d1 d2))

(* Weak searches run Bfs.reach in the whole host graph and stop once
   every member has been reached: the farthest member's distance is
   final by then, so the sweep reads the same as a full BFS. *)
let weak_sweep ~scratch t c members source =
  let k =
    Bfs.reach t.graph ~owner:t.cluster_of ~id:c ~count:(List.length members)
      ~source scratch
  in
  let r = farthest scratch members source in
  Bfs.release scratch k;
  r

let weak_diameter_estimate ~scratch t c =
  match t.member_lists.(c) with
  | [] | [ _ ] -> 0
  | [ u; v ] when Graph.is_edge t.graph u v -> 1
  | first :: _ as members -> (
      match weak_sweep ~scratch t c members first with
      | None -> -1
      | Some (far, d1) -> (
          match weak_sweep ~scratch t c members far with
          | None -> -1
          | Some (_, d2) -> max d1 d2))

let estimate_max f t =
  let worst = ref 0 in
  let disconnected = ref false in
  for c = 0 to t.num_clusters - 1 do
    match f t c with
    | -1 -> disconnected := true
    | d -> if d > !worst then worst := d
  done;
  if !disconnected then -1 else !worst

let max_strong_diameter_estimate t =
  let scratch = Bfs.scratch (Graph.n t.graph) in
  estimate_max (strong_diameter_estimate ~scratch) t
let max_weak_diameter_estimate t =
  let scratch = Bfs.scratch (Graph.n t.graph) in
  estimate_max (weak_diameter_estimate ~scratch) t

(* BFS witness tree from the first member in the host graph, pruned to
   the union of the root-to-member paths. A node's parent is its min-id
   neighbour one layer up — the canonical parent of Bfs.restricted_into,
   read off the distances. *)
let weak_witness_tree t c =
  match t.member_lists.(c) with
  | [] -> None
  | root :: _ as members ->
      let dist = Bfs.distances t.graph ~source:root in
      if List.exists (fun v -> dist.(v) < 0) members then None
      else
        let height = List.fold_left (fun h v -> max h dist.(v)) 0 members in
        let parent v =
          let up = dist.(v) - 1 in
          let p = ref (-1) in
          Graph.iter_neighbors t.graph v (fun u ->
              if !p < 0 && dist.(u) = up then p := u);
          !p
        in
        (* kept node -> its parent *)
        let keep = Hashtbl.create 64 in
        let rec mark v =
          if not (Hashtbl.mem keep v) then
            if v = root then Hashtbl.add keep v v
            else begin
              let p = parent v in
              Hashtbl.add keep v p;
              mark p
            end
        in
        List.iter mark members;
        let pairs =
          List.sort compare
            (Hashtbl.fold
               (fun v p acc -> if v = root then acc else (v, p) :: acc)
               keep [])
        in
        Some (root, pairs, height)

let weak_eccentric_pair t c =
  match t.member_lists.(c) with
  | [] -> (-1, -1, -1)
  | [ v ] -> (v, v, 0)
  | first :: _ as members ->
      let sweep source =
        let dist = Bfs.distances t.graph ~source in
        if List.exists (fun v -> dist.(v) < 0) members then None
        else
          Some
            (List.fold_left
               (fun (bv, bd) v ->
                 if dist.(v) > bd then (v, dist.(v)) else (bv, bd))
               (source, 0) members)
      in
      (match sweep first with
      | None -> (-1, -1, -1)
      | Some (u, _) -> (
          match sweep u with
          | None -> (-1, -1, -1)
          | Some (v, d) -> (u, v, d)))

(* the witness-tree search from the first member is also the first
   eccentric sweep, so both witnesses cost two restricted searches *)
let strong_witnesses ~scratch t c =
  match t.member_lists.(c) with
  | [] -> None
  | [ v ] -> Some ((v, [], 0), (v, v, 0))
  | root :: _ as members -> (
      let k = restricted ~scratch t c root in
      let first =
        Option.map
          (fun (u, _) ->
            let height =
              List.fold_left
                (fun h v -> Int.max h scratch.Bfs.dist.(v))
                0 members
            in
            let pairs =
              List.filter_map
                (fun v ->
                  if v = root then None else Some (v, scratch.Bfs.parent.(v)))
                members
            in
            ((root, pairs, height), u))
          (farthest scratch members root)
      in
      Bfs.release scratch k;
      match first with
      | None -> None
      | Some (tree, u) ->
          Option.map
            (fun (v, d) -> (tree, (u, v, d)))
            (sweep ~scratch t c members u))

let pp fmt t =
  Format.fprintf fmt "clustering(%d clusters, %d/%d nodes)" t.num_clusters
    (clustered_count t) (Graph.n t.graph)
