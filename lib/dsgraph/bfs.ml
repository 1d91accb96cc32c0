let alive mask v =
  match mask with None -> true | Some m -> Mask.mem m v

let multi_distances ?mask g ~sources =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if alive mask s && dist.(s) = -1 then begin
        dist.(s) <- 0;
        Queue.add s queue
      end)
    sources;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors g u (fun v ->
        if alive mask v && dist.(v) = -1 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  dist

let distances ?mask g ~source = multi_distances ?mask g ~sources:[ source ]

let parents ?mask g ~source =
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  if alive mask source then begin
    parent.(source) <- source;
    let queue = Queue.create () in
    Queue.add source queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Graph.iter_neighbors g u (fun v ->
          if alive mask v && parent.(v) = -1 then begin
            parent.(v) <- u;
            Queue.add v queue
          end)
    done
  end;
  parent

let eccentricity ?mask g v =
  let dist = distances ?mask g ~source:v in
  Array.fold_left max 0 dist

let diameter_of_set g set =
  match set with
  | [] | [ _ ] -> 0
  | _ ->
      let mask = Mask.of_list (Graph.n g) set in
      let diam = ref 0 in
      let disconnected = ref false in
      List.iter
        (fun s ->
          let dist = distances ~mask g ~source:s in
          List.iter
            (fun v ->
              if dist.(v) = -1 then disconnected := true
              else if dist.(v) > !diam then diam := dist.(v))
            set)
        set;
      if !disconnected then -1 else !diam

let weak_diameter_of_set g set =
  match set with
  | [] | [ _ ] -> 0
  | _ ->
      let diam = ref 0 in
      let disconnected = ref false in
      List.iter
        (fun s ->
          let dist = distances g ~source:s in
          List.iter
            (fun v ->
              if dist.(v) = -1 then disconnected := true
              else if dist.(v) > !diam then diam := dist.(v))
            set)
        set;
      if !disconnected then -1 else !diam

(* Scale variants: the allocation-per-call BFS above is fine for one-off
   queries, but per-cluster loops at n = 10^6 need reusable buffers and
   member-restricted traversals whose cost is the cluster's volume, not
   the whole graph.

   The search is layer-synchronous and direction-optimizing (Beamer's
   switch): a layer is expanded top-down (push: scan the frontier's
   rows) unless the frontier's arcs outweigh what a bottom-up step would
   read (see [pulls]); then it is expanded bottom-up (pull: each
   unvisited candidate scans its own row for a frontier neighbour and
   stops at the first). A hub cluster of depth 2 then costs two or three
   pull steps that each stop early, instead of one read of every arc.
   Both directions produce the same layers, and both pick the same
   parent: the min-id neighbour one layer up. Rows are sorted, so a
   pull's first hit is that neighbour; a push keeps the smaller id
   whenever it meets a node it already put in the next layer. The row
   loops read the CSR views directly rather than going through
   Graph.iter_neighbors: no visitor closure and no indirect call per
   edge. *)

type scratch = { dist : int array; parent : int array; queue : int array }

let scratch n =
  {
    dist = Array.make n (-1);
    parent = Array.make n (-1);
    queue = Array.make n 0;
  }

let start s source =
  s.dist.(source) <- 0;
  s.parent.(source) <- source;
  s.queue.(0) <- source

let degree (offsets : Graph.int_array1) v = offsets.{v + 1} - offsets.{v}

let rec volume_from (offsets : Graph.int_array1) queue i hi acc =
  if i >= hi then acc
  else volume_from offsets queue (i + 1) hi (acc + degree offsets queue.(i))
[@@hot]

let volume g s ~lo ~hi = volume_from (Graph.offsets g) s.queue lo hi 0

(* Beamer's test, alpha = 14: pull once the frontier's arcs outweigh
   1/14 of the unexplored ones. A pull also walks its whole candidate
   scan (visited candidates included), so that is charged to it in
   full: without the charge, the thin last layers of a deep cluster
   (a grid ball) would each rescan every member. *)
let pulls ~frontier ~scan ~unexplored = 14 * (frontier - scan) > unexplored

(* Top-down: expand queue.(lo .. hi-1) (one layer) into the next layer,
   appended from queue.(hi); returns the new tail. Meeting a member
   already seen, keep u as its parent if v sits one layer down and u is
   the smaller id. That test is computed branch-free: whether v is one
   layer down is a coin toss per arc on a grid, and as a branch it cost
   the grid-thm23 certify ~20%. *)
let push_layer (offsets : Graph.int_array1) (targets : Graph.int_array1) owner
    id s lo hi =
  let dist = s.dist and parent = s.parent and queue = s.queue in
  let tail = (ref hi [@alloc_ok "one cursor cell per layer, not per node"]) in
  for j = lo to hi - 1 do
    let u = queue.(j) in
    let du1 = dist.(u) + 1 in
    for i = offsets.{u} to offsets.{u + 1} - 1 do
      let v = targets.{i} in
      if owner.(v) = id then begin
        let dv = dist.(v) in
        if dv = -1 then begin
          dist.(v) <- du1;
          parent.(v) <- u;
          queue.(!tail) <- v;
          incr tail
        end
        else begin
          let p = parent.(v) in
          let take = Bool.to_int (dv = du1) land Bool.to_int (u < p) in
          parent.(v) <- p + (take * (u - p))
        end
      end
    done
  done;
  !tail
[@@hot]

(* The first (= min-id, rows being sorted) neighbour in
   targets.{i .. hi-1} that belongs to the class at [depth]; -1 if
   none. *)
let rec first_at (targets : Graph.int_array1) owner id dist depth i hi =
  if i >= hi then -1
  else
    let u = targets.{i} in
    if owner.(u) = id && dist.(u) = depth then u
    else first_at targets owner id dist depth (i + 1) hi
[@@hot]

(* Bottom-up for one candidate [v] of the class: joins layer depth+1
   under its first (min-id) frontier neighbour. Returns the new tail. *)
let pull_node (offsets : Graph.int_array1) targets owner id s depth v tail =
  if s.dist.(v) <> -1 then tail
  else
    let u =
      first_at targets owner id s.dist depth offsets.{v} offsets.{v + 1}
    in
    if u < 0 then tail
    else begin
      s.dist.(v) <- depth + 1;
      s.parent.(v) <- u;
      s.queue.(tail) <- v;
      tail + 1
    end
[@@hot]

let rec pull_members offsets targets owner id s depth members tail =
  match members with
  | [] -> tail
  | v :: rest ->
      pull_members offsets targets owner id s depth rest
        (pull_node offsets targets owner id s depth v tail)
[@@hot]

let pull_range offsets targets owner id s depth first last tail =
  let tail = (ref tail [@alloc_ok "one cursor cell per layer, not per node"]) in
  for v = first to last - 1 do
    if owner.(v) = id then
      tail := pull_node offsets targets owner id s depth v !tail
  done;
  !tail
[@@hot]

let step g ~owner ~id s ~lo ~hi ~frontier ~unexplored ~first ~last =
  let offsets = Graph.offsets g and targets = Graph.targets g in
  if pulls ~frontier ~scan:(last - first) ~unexplored then
    pull_range offsets targets owner id s s.dist.(s.queue.(lo)) first last hi
  else push_layer offsets targets owner id s lo hi
[@@hot]

let rec members_volume offsets members acc =
  match members with
  | [] -> acc
  | v :: rest -> members_volume offsets rest (acc + degree offsets v)
[@@hot]

(* Layer after layer until one comes out empty; [explored] is the
   volume of queue.(0 .. hi-1), [frontier] that of queue.(lo .. hi-1),
   [scan] and [total] the member count and volume. *)
let rec layers offsets targets owner id members s ~scan ~total ~explored
    ~frontier lo hi =
  if lo >= hi then hi
  else
    let tail =
      if pulls ~frontier ~scan ~unexplored:(total - explored) then
        pull_members offsets targets owner id s s.dist.(s.queue.(lo)) members
          hi
      else push_layer offsets targets owner id s lo hi
    in
    let next = volume_from offsets s.queue hi tail 0 in
    layers offsets targets owner id members s ~scan ~total
      ~explored:(explored + next) ~frontier:next hi tail
[@@hot]

let restricted_into g ~owner ~id ~members ~source s =
  if Array.length s.dist < Graph.n g then
    invalid_arg "Bfs.restricted_into: scratch smaller than the graph";
  if owner.(source) <> id then 0
  else begin
    let offsets = Graph.offsets g and targets = Graph.targets g in
    start s source;
    let d = degree offsets source in
    layers offsets targets owner id members s ~scan:(List.length members)
      ~total:(members_volume offsets members 0)
      ~explored:d ~frontier:d 0 1
  end
[@@hot]

let release s k =
  for i = 0 to k - 1 do
    s.dist.(s.queue.(i)) <- -1
  done

let reach g ~owner ~id ~count ~source s =
  if Array.length s.dist < Graph.n g then
    invalid_arg "Bfs.reach: scratch smaller than the graph";
  let offsets = Graph.offsets g and targets = Graph.targets g in
  let dist = s.dist and queue = s.queue in
  start s source;
  let found = ref (Bool.to_int (owner.(source) = id)) in
  let head = ref 0 and tail = ref 1 in
  while !found < count && !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du1 = dist.(u) + 1 in
    for i = offsets.{u} to offsets.{u + 1} - 1 do
      let v = targets.{i} in
      if dist.(v) = -1 then begin
        dist.(v) <- du1;
        queue.(!tail) <- v;
        incr tail;
        if owner.(v) = id then incr found
      end
    done
  done;
  !tail
