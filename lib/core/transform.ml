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

let ball_growth_limit ~n ~epsilon =
  let growth = 1.0 /. (1.0 -. (epsilon /. 2.0)) in
  int_of_float (Float.ceil (log (float_of_int (max n 2)) /. log growth)) + 1

type scratch = Stamp.t

let scratch = Stamp.create

(* The model stages. [model_weak weak]: A, then the giant check's
   information gathering over the Steiner trees, depth · congestion
   rounds. [model_ball]: one stamped BFS. *)
let charge_model cost g ~rounds ~messages tag =
  Congest.Cost.charge cost ~rounds ~messages
    ~max_bits:(2 * Congest.Bits.id_bits ~n:(Graph.n g))
    tag

let model_weak (weak : weak_carver) ~cost g ~domain ~epsilon =
  let wr = weak ~cost g ~domain ~epsilon in
  charge_model cost g
    ~rounds:(max 1 (wr.depth * max 1 wr.congestion))
    ~messages:(Array.length domain) "transform.size_check";
  wr

let model_ball ~cost (s : scratch) g comp ~inside ~root ~radius =
  let reached =
    if s.mark.(root) = inside then Stamp.bfs s g ~inside ~source:root 0 else 0
  in
  let maxd = if reached = 0 then 0 else s.value.(s.queue.(reached - 1)) in
  (* |B_d|: the BFS queue lists the layers one after another *)
  let cum = Array.make (maxd + 1) 0 in
  for j = 0 to reached - 1 do
    cum.(s.value.(s.queue.(j))) <- j + 1
  done;
  let ball k = cum.(min k maxd) in
  let r_star = radius ~maxd (fun r -> (ball r, ball (r + 1))) in
  charge_model cost g ~rounds:(r_star + 2) ~messages:(Array.length comp)
    "transform.ball_bfs";
  r_star

(* Theorem 2.1's size-halving levels on G[set], [set] ascending, with the
   node count n = |set|. Each output cluster, an ascending array, is
   passed to [emit]. *)
let levels ?cost ~trace ~weak ~ball s g ~emit ~epsilon set =
  Stamp.fit s g;
  let n = max (Array.length set) 2 in
  let eps' = epsilon /. (2.0 *. float_of_int (Congest.Bits.id_bits ~n)) in
  let growth_limit = ball_growth_limit ~n ~epsilon in
  (* r*: the first radius from the tree depth on whose ball holds a
     (1 - ε/2) share of the next one, or the growth limit *)
  let radius ~depth ~maxd counts =
    let lo = min depth maxd in
    let rec find r =
      if r >= lo + growth_limit then r
      else
        let br, br1 = counts r in
        if float_of_int br >= (1.0 -. (epsilon /. 2.0)) *. float_of_int br1
        then r
        else find (r + 1)
    in
    find lo
  in
  let weak_invocations = ref 0 in
  let max_ball_radius = ref 0 in
  let iterations = ref 0 in
  (* Current level: list of components. All components of one level
     execute in parallel; we meter each separately and merge. *)
  let level =
    ref
      (Array.to_list
         (Stamp.components s g set ~inside:(Stamp.stamp s set)))
  in
  let i = ref 1 in
  let push comps next = Array.fold_left (fun acc c -> c :: acc) next comps in
  while !level <> [] do
    Congest.Span.enter_idx trace "level" !i;
    incr iterations;
    let threshold = float_of_int n /. (2.0 ** float_of_int !i) in
    let next_level = ref [] in
    let sub_meters = ref [] in
    List.iter
      (fun comp ->
        if Array.length comp = 1 then
          (* trivial component: its own output cluster, at no cost *)
          emit comp
        else begin
          let sub = Congest.Cost.create () in
          sub_meters := sub :: !sub_meters;
          incr weak_invocations;
          Congest.Span.enter trace "weak";
          let wr = weak ~cost:sub g ~domain:comp ~epsilon:eps' in
          Congest.Span.exit trace;
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
            let inside = Stamp.stamp s comp in
            let alive =
              Array.map
                (fun cluster ->
                  Array.iter
                    (fun v ->
                      if s.mark.(v) <> inside then
                        invalid_arg
                          "Transform: weak cluster node outside its domain")
                    cluster;
                  Stamp.components s g cluster
                    ~inside:(Stamp.stamp s cluster))
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
            let inside = Stamp.stamp s comp in
            let r_star =
              ball ~cost:sub s g comp ~inside ~root:wr.roots.(!giant)
                ~radius:(radius ~depth:wr.depth)
            in
            if r_star > !max_ball_radius then max_ball_radius := r_star;
            (* one pass in ascending order: the ball's nodes go to the
               queue, free until the components below, and the nodes
               past its next layer are stamped for the next level *)
            let rest = Stamp.fresh s and k = ref 0 in
            Array.iter
              (fun v ->
                let reached = s.mark.(v) = inside + 1 in
                if reached && s.value.(v) <= r_star then begin
                  s.queue.(!k) <- v;
                  incr k
                end
                else if (not reached) || s.value.(v) > r_star + 1 then
                  s.mark.(v) <- rest)
              comp;
            if !k > 0 then emit (Array.sub s.queue 0 !k);
            next_level :=
              push (Stamp.components s g comp ~inside:rest) !next_level;
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

let strong_carve ?cost ~weak ?(scratch = scratch ()) g ~domain ~epsilon =
  check_epsilon epsilon;
  Cluster.Carving.check_domain "Transform.strong_carve" g domain;
  let clusters = ref [] in
  let trace = Option.bind cost Congest.Cost.trace in
  let stats =
    Congest.Span.with_span trace "transform" (fun () ->
        levels ?cost ~trace ~weak:(model_weak weak) ~ball:model_ball
          scratch g ~emit:(fun c -> clusters := c :: !clusters)
          ~epsilon domain)
  in
  (Array.of_list (List.rev !clusters), stats)

(* Section 2 remark: remove the global-n assumption by pre-clustering with
   the weak carving at eps/2, then transforming inside each weak cluster
   with its own local node count. *)
let strong_carve_unknown_n ?cost ~weak g ~domain ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Transform.strong_carve_unknown_n: epsilon must be in (0, 1)";
  Cluster.Carving.check_domain "Transform.strong_carve_unknown_n" g domain;
  let half = epsilon /. 2.0 in
  let trace = Option.bind cost Congest.Cost.trace in
  let s = scratch () in
  let clusters = ref [] in
  Congest.Span.with_span trace "transform_unknown_n" (fun () ->
      let pre = weak ?cost g ~domain ~epsilon:half in
      let sub_meters =
        Array.fold_left
          (fun acc cluster ->
            let sub = Congest.Cost.create () in
            ignore
              (levels ~cost:sub ~trace:None ~weak:(model_weak weak)
                 ~ball:model_ball s g
                 ~emit:(fun c -> clusters := c :: !clusters)
                 ~epsilon:half cluster);
            sub :: acc)
          [] pre.clusters
      in
      match cost with
      | None -> ()
      | Some c -> Congest.Cost.parallel c sub_meters "transform.unknown_n");
  Array.of_list !clusters
