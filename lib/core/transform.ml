open Dsgraph

type weak_result = {
  clusters : int array array;
  roots : int array;
  depth : int;
  congestion : int;
}

type weak_carver =
  ?cost:Congest.Cost.t ->
  Dsgraph.Graph.t ->
  domain:int array ->
  epsilon:float ->
  weak_result

type stats = {
  iterations : int;
  weak_invocations : int;
  max_ball_radius : int;
}

let log2_ceil n =
  let rec go acc k = if k >= n then acc else go (acc + 1) (2 * k) in
  max 1 (go 0 1)

let ball_growth_limit ~n ~epsilon =
  let growth = 1.0 /. (1.0 -. (epsilon /. 2.0)) in
  int_of_float (Float.ceil (log (float_of_int (max n 2)) /. log growth)) + 1

(* Working memory indexed by node, reusable across carves and graphs.
   Every node set a carve looks at (a component, the alive part of one,
   the rest of one after a ball) is stamped afresh: mark.(v) = inside
   lists v in the set, mark.(v) = inside + 1 says a search has reached
   it, value.(v) holds its distance or component id. Stamps only grow
   and no array is ever cleared, so a set costs its own volume, not n. *)
type scratch = {
  mutable mark : int array;
  mutable value : int array;
  mutable queue : int array;
  mutable stamp : int;
}

let scratch () = { mark = [||]; value = [||]; queue = [||]; stamp = 0 }

(* Size the scratch for [g]; arrays only ever grow. *)
let fit s g =
  let n = Graph.n g in
  if Array.length s.mark < n then begin
    s.mark <- Array.make n 0;
    s.value <- Array.make n 0;
    s.queue <- Array.make n 0
  end

(* A stamp no node carries yet, and the one after it. *)
let fresh_stamp s =
  s.stamp <- s.stamp + 2;
  s.stamp - 1

(* Stamp every node of [set]; returns the [inside] stamp. *)
let stamp s set =
  let inside = fresh_stamp s in
  Array.iter (fun v -> s.mark.(v) <- inside) set;
  inside

(* BFS of the nodes stamped [inside] from [source], appending them to
   queue.(tail ..) layer by layer with their distance in [value]. The
   search never leaves the set. Returns the new tail. *)
let bfs s g ~inside ~source tail =
  let offsets = Graph.offsets g and targets = Graph.targets g in
  let mark = s.mark and value = s.value and queue = s.queue in
  mark.(source) <- inside + 1;
  value.(source) <- 0;
  queue.(tail) <- source;
  let head = ref tail and tail = ref (tail + 1) in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let d = value.(u) + 1 in
    for i = offsets.{u} to offsets.{u + 1} - 1 do
      let w = targets.{i} in
      if mark.(w) = inside then begin
        mark.(w) <- inside + 1;
        value.(w) <- d;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

(* The connected components of G[S], S being the nodes of ascending
   [set] stamped [inside]: each one an ascending array, in order of
   smallest node (Components.components' order). When S is all of [set]
   and connected, the one component is [set] itself. *)
let components s g set ~inside =
  let sizes = ref [] and ncomp = ref 0 and tail = ref 0 in
  Array.iter
    (fun v ->
      if s.mark.(v) = inside then begin
        let lo = !tail in
        tail := bfs s g ~inside ~source:v lo;
        for j = lo to !tail - 1 do
          s.value.(s.queue.(j)) <- !ncomp
        done;
        sizes := (!tail - lo) :: !sizes;
        incr ncomp
      end)
    set;
  if !tail = Array.length set && !ncomp = 1 then [| set |]
  else begin
    let comps =
      Array.of_list (List.rev_map (fun k -> Array.make k 0) !sizes)
    in
    let fill = Array.make !ncomp 0 in
    Array.iter
      (fun v ->
        if s.mark.(v) = inside + 1 then begin
          let c = s.value.(v) in
          comps.(c).(fill.(c)) <- v;
          fill.(c) <- fill.(c) + 1
        end)
      set;
    comps
  end

(* Theorem 2.1's size-halving levels on G[set], [set] ascending, with the
   node count n = |set|. Each output cluster, an ascending array, is
   passed to [emit]. *)
let levels ?cost ~weak s g ~emit ~epsilon set =
  let n = max (Array.length set) 2 in
  let eps' = epsilon /. (2.0 *. float_of_int (log2_ceil n)) in
  let growth_limit = ball_growth_limit ~n ~epsilon in
  let weak_invocations = ref 0 in
  let max_ball_radius = ref 0 in
  let iterations = ref 0 in
  let id_bits = Congest.Bits.id_bits ~n:(Graph.n g) in
  (* Current level: list of components. All components of one level
     execute in parallel; we meter each separately and merge. *)
  let level =
    ref (Array.to_list (components s g set ~inside:(stamp s set)))
  in
  let i = ref 1 in
  let trace = Option.bind cost Congest.Cost.trace in
  let push comps next = Array.fold_left (fun acc c -> c :: acc) next comps in
  while !level <> [] do
    Congest.Span.enter_idx trace "level" !i;
    incr iterations;
    let threshold = float_of_int n /. (2.0 ** float_of_int !i) in
    let next_level = ref [] in
    let sub_meters = ref [] in
    List.iter
      (fun comp ->
        let comp_size = Array.length comp in
        if comp_size = 1 then
          (* trivial component: its own output cluster, at no cost *)
          emit comp
        else begin
          let sub = Congest.Cost.create () in
          sub_meters := sub :: !sub_meters;
          incr weak_invocations;
          Congest.Span.enter trace "weak";
          let wr = weak ?cost:(Some sub) g ~domain:comp ~epsilon:eps' in
          Congest.Span.exit trace;
          (* giant-cluster check: information gathering over the Steiner
             trees costs depth · congestion rounds *)
          Congest.Cost.charge sub
            ~rounds:(max 1 (wr.depth * max 1 wr.congestion))
            ~messages:comp_size ~max_bits:(2 * id_bits) "transform.size_check";
          let giant = ref (-1) in
          Array.iteri
            (fun c members ->
              if float_of_int (Array.length members) > threshold then
                giant := c)
            wr.clusters;
          if !giant < 0 then begin
            (* Case I: A's unclustered nodes die; alive components (each a
               subset of one cluster, hence <= n/2^i) continue *)
            Congest.Span.enter trace "case_i";
            let inside = stamp s comp in
            let alive =
              Array.map
                (fun cluster ->
                  Array.iter
                    (fun v ->
                      if s.mark.(v) <> inside then
                        invalid_arg
                          "Transform: weak cluster node outside its domain")
                    cluster;
                  components s g cluster ~inside:(stamp s cluster))
                wr.clusters
            in
            (* clusters are non-adjacent, so these are the components of
               their union; a connected cluster is its own component *)
            let alive = Array.concat (Array.to_list alive) in
            Array.sort (fun a b -> Int.compare a.(0) b.(0)) alive;
            next_level := push alive !next_level;
            Congest.Span.exit trace
          end
          else begin
            (* Case II: grow a strong-diameter ball from the giant
               cluster's Steiner root that swallows the whole cluster *)
            Congest.Span.enter trace "case_ii";
            let root = wr.roots.(!giant) in
            let inside = stamp s comp in
            let reached =
              if s.mark.(root) = inside then bfs s g ~inside ~source:root 0
              else 0
            in
            let dist v = s.value.(v) in
            let maxd =
              if reached = 0 then 0 else dist s.queue.(reached - 1)
            in
            let cum = Array.make (maxd + 1) 0 in
            for j = 0 to reached - 1 do
              let d = dist s.queue.(j) in
              cum.(d) <- cum.(d) + 1
            done;
            for k = 1 to maxd do
              cum.(k) <- cum.(k) + cum.(k - 1)
            done;
            let ball k = if k > maxd then cum.(maxd) else cum.(k) in
            let lo = min wr.depth maxd in
            let rec find r =
              if r >= lo + growth_limit then r
              else if
                float_of_int (ball r)
                >= (1.0 -. (epsilon /. 2.0)) *. float_of_int (ball (r + 1))
              then r
              else find (r + 1)
            in
            let r_star = find lo in
            if r_star > !max_ball_radius then max_ball_radius := r_star;
            Congest.Cost.charge sub ~rounds:(r_star + 2) ~messages:comp_size
              ~max_bits:(2 * id_bits) "transform.ball_bfs";
            let ball = Array.make (ball r_star) 0 and k = ref 0 in
            Array.iter
              (fun v ->
                if s.mark.(v) = inside + 1 && dist v <= r_star then begin
                  ball.(!k) <- v;
                  incr k
                end)
              comp;
            if !k > 0 then emit ball;
            let rest = fresh_stamp s in
            Array.iter
              (fun v ->
                if s.mark.(v) <> inside + 1 || dist v > r_star + 1 then
                  s.mark.(v) <- rest)
              comp;
            next_level :=
              push (components s g comp ~inside:rest) !next_level;
            Congest.Span.exit trace
          end
        end)
      !level;
    (match cost with
    | None -> ()
    | Some c ->
        Congest.Cost.parallel c !sub_meters
          (Printf.sprintf "transform.level_%02d" !i));
    level := !next_level;
    incr i;
    Congest.Span.exit trace
  done;
  {
    iterations = !iterations;
    weak_invocations = !weak_invocations;
    max_ball_radius = !max_ball_radius;
  }

let check_epsilon epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Transform.strong_carve: epsilon must be in (0, 1)"

let strong_carve_local ?cost ~weak ?(scratch = scratch ()) g ~domain
    ~epsilon =
  check_epsilon epsilon;
  Array.iteri
    (fun k v ->
      if v < 0 || v >= Graph.n g || (k > 0 && v <= domain.(k - 1)) then
        invalid_arg
          "Transform.strong_carve_local: domain must be ascending node ids \
           of the graph")
    domain;
  fit scratch g;
  let clusters = ref [] in
  let stats =
    Congest.Span.with_span
      (Option.bind cost Congest.Cost.trace)
      "transform"
      (fun () ->
        levels ?cost ~weak scratch g
          ~emit:(fun c -> clusters := c :: !clusters)
          ~epsilon domain)
  in
  (Array.of_list (List.rev !clusters), stats)

let strong_carve ?cost ~weak ?domain g ~epsilon =
  check_epsilon epsilon;
  let n_graph = Graph.n g in
  let domain =
    match domain with
    | None -> Mask.full n_graph
    | Some d ->
        if Mask.size d <> n_graph then
          invalid_arg
            (Printf.sprintf
               "Transform.strong_carve: domain mask has size %d, graph has \
                %d nodes"
               (Mask.size d) n_graph);
        d
  in
  let clusters, stats =
    strong_carve_local ?cost ~weak g ~domain:(Mask.to_array domain) ~epsilon
  in
  (Cluster.Carving.of_clusters g ~domain clusters, stats)

(* Section 2 remark: remove the global-n assumption by pre-clustering with
   the weak carving at eps/2, then transforming inside each weak cluster
   with its own local node count. *)
let strong_carve_unknown_n ?cost ~weak ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Transform.strong_carve_unknown_n: epsilon must be in (0, 1)";
  let domain = match domain with Some d -> d | None -> Mask.full (Graph.n g) in
  let half = epsilon /. 2.0 in
  let trace = Option.bind cost Congest.Cost.trace in
  let s = scratch () in
  fit s g;
  let clusters = ref [] in
  Congest.Span.with_span trace "transform_unknown_n" (fun () ->
      let pre = weak ?cost g ~domain:(Mask.to_array domain) ~epsilon:half in
      let sub_meters =
        Array.fold_left
          (fun acc cluster ->
            let sub = Congest.Cost.create () in
            ignore
              (levels ~cost:sub ~weak s g
                 ~emit:(fun c -> clusters := c :: !clusters)
                 ~epsilon:half cluster);
            sub :: acc)
          [] pre.clusters
      in
      match cost with
      | None -> ()
      | Some c -> Congest.Cost.parallel c sub_meters "transform.unknown_n");
  Cluster.Carving.of_clusters g ~domain (Array.of_list !clusters)
