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

let ball ?mask g ~center ~radius =
  let dist = distances ?mask g ~source:center in
  let acc = ref [] in
  for v = Graph.n g - 1 downto 0 do
    if dist.(v) >= 0 && dist.(v) <= radius then acc := v :: !acc
  done;
  !acc

let layer_sizes ?mask g ~sources =
  let dist = multi_distances ?mask g ~sources in
  let maxd = Array.fold_left max 0 dist in
  let counts = Array.make (maxd + 1) 0 in
  Array.iter (fun d -> if d >= 0 then counts.(d) <- counts.(d) + 1) dist;
  (* cumulative *)
  for r = 1 to maxd do
    counts.(r) <- counts.(r) + counts.(r - 1)
  done;
  counts

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

let weak_diameter_of_set ?mask g set =
  match set with
  | [] | [ _ ] -> 0
  | _ ->
      let diam = ref 0 in
      let disconnected = ref false in
      List.iter
        (fun s ->
          let dist = distances ?mask g ~source:s in
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
   the whole graph. *)

let distances_into ?mask g ~source ~dist ~queue =
  if not (alive mask source) then 0
  else begin
    dist.(source) <- 0;
    queue.(0) <- source;
    let head = (ref 0 [@alloc_ok "two cursor cells per call, not per node"])
    and tail = (ref 1 [@alloc_ok "two cursor cells per call, not per node"]) in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let du = dist.(u) in
      Graph.iter_neighbors g u
        ((fun v ->
           if alive mask v && dist.(v) = -1 then begin
             dist.(v) <- du + 1;
             queue.(!tail) <- v;
             incr tail
           end)
        [@alloc_ok
          "one visitor closure per dequeued node; capturing du keeps \
           the loop branch-free and the closure dies in the minor heap"])
    done;
    !tail
  end
[@@hot]

type scratch = { dist : int array; parent : int array; queue : int array }

let scratch n =
  {
    dist = Array.make n (-1);
    parent = Array.make n (-1);
    queue = Array.make n 0;
  }

(* The row loop reads the CSR views directly rather than going through
   Graph.iter_neighbors: no visitor closure and no indirect call per
   edge, which is most of the cost once the arrays sit in cache. *)
let restricted_into g ~owner ~id ~source s =
  if Array.length s.dist < Graph.n g then
    invalid_arg "Bfs.restricted_into: scratch smaller than the graph";
  if owner.(source) <> id then 0
  else begin
    let dist = s.dist and parent = s.parent and queue = s.queue in
    let offsets = Graph.offsets g and targets = Graph.targets g in
    dist.(source) <- 0;
    parent.(source) <- source;
    queue.(0) <- source;
    let head = (ref 0 [@alloc_ok "two cursor cells per call, not per node"])
    and tail = (ref 1 [@alloc_ok "two cursor cells per call, not per node"]) in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let du1 = dist.(u) + 1 in
      for i = offsets.{u} to offsets.{u + 1} - 1 do
        let v = targets.{i} in
        if owner.(v) = id && dist.(v) = -1 then begin
          dist.(v) <- du1;
          parent.(v) <- u;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    !tail
  end
[@@hot]

let release s k =
  for i = 0 to k - 1 do
    s.dist.(s.queue.(i)) <- -1
  done

let component_of ?mask g v =
  if not (alive mask v) then []
  else
    let dist = distances ?mask g ~source:v in
    let acc = ref [] in
    for u = Graph.n g - 1 downto 0 do
      if dist.(u) >= 0 then acc := u :: !acc
    done;
    !acc
