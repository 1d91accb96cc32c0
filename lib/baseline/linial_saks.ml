open Dsgraph

let max_radius ~n ~epsilon =
  let nf = float_of_int (max n 2) in
  max 2 (int_of_float (Float.ceil (2.0 *. log nf /. epsilon)))

(* Node-indexed working memory, never cleared. In an attempt with stamp
   [a], st.mark.(v) = a lists v in the domain and a + 1 says a center
   has reached it: winner.(v) is the first (highest-priority) such
   center, slack.(v) its remaining radius at v, and st.value.(v) the
   largest remaining radius any center so far had at v. In the search of
   one center with stamp [b], visit.(v) = b says it reached v, through
   parent.(v), and b + 1 that v is in its tree. arcs counts trees per
   CSR arc and is 0 between calls. *)
type scratch = {
  st : Stamp.t;
  mutable visit : int array;
  mutable parent : int array;
  mutable winner : int array;
  mutable slack : int array;
  mutable arcs : int array;
  mutable touched : int array;
}

let scratch () =
  let e = [||] in
  { st = Stamp.create (); visit = e; parent = e; winner = e; slack = e;
    arcs = e; touched = e }

let fit s g =
  Stamp.fit s.st g;
  let n = Graph.n g in
  if Array.length s.visit < n then begin
    s.visit <- Array.make n 0;
    s.parent <- Array.make n 0;
    s.winner <- Array.make n 0;
    s.slack <- Array.make n 0
  end

(* What a caller reads of a pass besides the clusters. *)
type want = Clusters | Trees | Congestion

(* One tree more on the edge {v, p}, counted at the smaller endpoint's
   arc; returns its tree count. *)
let count_tree s g ntouched v p =
  let targets = Graph.targets g in
  let u = min v p and x = max v p in
  let rec arc lo hi =
    let mid = (lo + hi) / 2 in
    if targets.{mid} = x then mid
    else if targets.{mid} < x then arc (mid + 1) hi
    else arc lo mid
  in
  let i = arc (Graph.offsets g).{u} (Graph.offsets g).{u + 1} in
  s.arcs.(i) <- s.arcs.(i) + 1;
  if s.arcs.(i) = 1 then begin
    s.touched.(!ntouched) <- i;
    incr ntouched
  end;
  s.arcs.(i)

(* One sampling pass. The radii are drawn in ascending node order; the
   centers then search in descending priority (node id), so each node's
   first visitor is its winner. A search stops at a node that a
   higher-priority center already reached with at least as much
   remaining radius: all it could reach from there is covered by that
   center, so no winner and no slack changes (DESIGN.md §5). Every node
   on a shortest path from a center to one of its members is searched,
   so the parents this pass records are those of a full BFS and give
   the members' Steiner chains, walked as soon as the center's search
   ends. Returns each center with members as (members ascending, center,
   tree pairs), the largest radius drawn, the largest member distance
   and the most trees on one edge. *)
let attempt s rng g ~domain ~epsilon ~cap ~want =
  let nd = Array.length domain in
  let radius = Array.make nd 0 and max_r = ref 0 in
  for j = 0 to nd - 1 do
    radius.(j) <- min cap (Rng.geometric rng epsilon);
    max_r := max !max_r radius.(j)
  done;
  let offsets = Graph.offsets g and targets = Graph.targets g in
  let mark = s.st.mark and reach = s.st.value and queue = s.st.queue in
  let visit = s.visit and parent = s.parent in
  let winner = s.winner and slack = s.slack in
  let a = Stamp.stamp s.st domain in
  let clusters = ref [] and depth = ref 0 and congestion = ref 0 in
  let ntouched = ref 0 in
  (* u reaches w, rem hops from the end of its radius; false if pruned *)
  let enter u b w rem =
    visit.(w) <- b;
    if mark.(w) = a + 1 && reach.(w) >= rem then false
    else begin
      if mark.(w) = a then begin
        mark.(w) <- a + 1;
        winner.(w) <- u;
        slack.(w) <- rem
      end;
      reach.(w) <- rem;
      true
    end
  in
  for j = nd - 1 downto 0 do
    let u = domain.(j) and r = radius.(j) in
    let b = Stamp.fresh s.st in
    if enter u b u r then begin
      queue.(0) <- u;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let x = queue.(!head) in
        incr head;
        (* reach.(x) is u's remaining radius at x: u set it on entry *)
        if reach.(x) > 0 then
          for i = offsets.{x} to offsets.{x + 1} - 1 do
            let w = targets.{i} in
            if (mark.(w) = a || mark.(w) = a + 1) && visit.(w) <> b
               && enter u b w (reach.(x) - 1)
            then begin
              parent.(w) <- x;
              queue.(!tail) <- w;
              incr tail
            end
          done
      done;
      let members = ref [] in
      for k = !tail - 1 downto 0 do
        let v = queue.(k) in
        if winner.(v) = u && slack.(v) >= 1 then begin
          members := v :: !members;
          depth := max !depth (r - slack.(v))
        end
      done;
      if !members <> [] then begin
        let members = Array.of_list !members in
        Array.sort Int.compare members;
        let pairs = ref [ (u, u) ] in
        if want <> Clusters then begin
          (* each member's chain, largest member first, up to the first
             node already in the tree *)
          visit.(u) <- b + 1;
          for k = Array.length members - 1 downto 0 do
            let v = ref members.(k) in
            while visit.(!v) <> b + 1 do
              let p = parent.(!v) in
              visit.(!v) <- b + 1;
              if want = Trees then pairs := (!v, p) :: !pairs
              else congestion := max !congestion (count_tree s g ntouched !v p);
              v := p
            done
          done
        end;
        clusters := (members, u, !pairs) :: !clusters
      end
    end
  done;
  for k = 0 to !ntouched - 1 do
    s.arcs.(s.touched.(k)) <- 0
  done;
  (!clusters, !max_r, !depth, !congestion)

let winners rng g ~domain ~epsilon =
  let s = scratch () in
  fit s g;
  let cap = max_radius ~n:(Array.length domain) ~epsilon in
  let _, max_r, _, _ = attempt s rng g ~domain ~epsilon ~cap ~want:Clusters in
  (Array.map (fun v -> (s.winner.(v), s.slack.(v))) domain, max_r)

(* The retry loop every entry point shares: sample until the dead
   fraction is at most [epsilon], charging each attempt. Returns the
   accepted pass's clusters (ascending, by smallest member), with their
   centers and trees in the same order, its depth and congestion. *)
let run s ~max_retries ~want ~name rng ?cost g ~domain ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg (name ^ ": epsilon must be in (0, 1)");
  Cluster.Carving.check_domain name g domain;
  fit s g;
  if want = Congestion && Array.length s.arcs < 2 * Graph.m g then begin
    s.arcs <- Array.make (2 * Graph.m g) 0;
    s.touched <- Array.make (2 * Graph.m g) 0
  end;
  let nd = Array.length domain in
  let cap = max_radius ~n:nd ~epsilon in
  let rec go k =
    if k >= max_retries then
      failwith
        (name ^ ": retries exhausted"
        ^ if want = Clusters then " (unlucky sampling)" else "");
    let ((clusters, max_r, _, _) as pass) =
      attempt s rng g ~domain ~epsilon ~cap ~want
    in
    (* distributed implementation: radius-capped priority flooding, one
       wave out and one wave back *)
    (match cost with
    | None -> ()
    | Some c ->
        Congest.Cost.charge c
          ~rounds:((2 * max_r) + 2)
          ~messages:nd
          ~max_bits:(2 * Congest.Bits.id_bits ~n:(Graph.n g))
          "linial_saks.carve");
    let dead =
      List.fold_left (fun k (m, _, _) -> k - Array.length m) nd clusters
    in
    if nd > 0 && float_of_int dead /. float_of_int nd > epsilon then
      go (k + 1)
    else pass
  in
  let clusters, _, depth, congestion = go 0 in
  let clusters =
    Array.of_list
      (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a.(0) b.(0)) clusters)
  in
  ( Array.map (fun (m, _, _) -> m) clusters,
    Array.map (fun (_, u, _) -> u) clusters,
    Array.map
      (fun (_, root, parent) -> { Cluster.Steiner.root; parent })
      clusters,
    depth,
    congestion )

let carve ?(max_retries = 60) rng : Cluster.Carving.carver =
  let s = scratch () in
  fun ?cost g ~domain ~epsilon ->
    let clusters, _, _, _, _ =
      run s ~max_retries ~want:Clusters ~name:"Linial_saks.carve" rng ?cost g
        ~domain ~epsilon
    in
    clusters

let carve_with_trees ?(max_retries = 60) rng =
  let s = scratch () in
  fun ?cost g ~domain ~epsilon ->
    let clusters, _, forest, _, _ =
      run s ~max_retries ~want:Trees ~name:"Linial_saks.carve_with_trees" rng
        ?cost g ~domain ~epsilon
    in
    (clusters, forest)

let weak_carver rng : Strongdecomp.Transform.weak_carver =
  let s = scratch () in
  fun ?cost g ~domain ~epsilon ->
    let clusters, roots, _, depth, congestion =
      run s ~max_retries:60 ~want:Congestion
        ~name:"Linial_saks.carve_with_trees" rng ?cost g ~domain ~epsilon
    in
    { Strongdecomp.Transform.clusters; roots; depth; congestion }

let decompose ?cost rng g = Strongdecomp.Netdecomp.of_carver ?cost (carve rng) g
