open Dsgraph

type outcome =
  | Cut of { v1 : int array; v2 : int array; removed : int array }
  | Component of { u : int array; boundary : int array }

type scratch = Stamp.t

let scratch = Stamp.create

let delta ~n ~epsilon = epsilon /. Float.max (log (float_of_int n)) 1.0

let window ~n ~epsilon =
  let d = delta ~n ~epsilon in
  (* (1+d)^K >= 3 suffices: a set of size >= n/3 cannot keep growing by
     (1+d) for K layers without exceeding n *)
  int_of_float (Float.ceil (log 3.0 /. log (1.0 +. d))) + 1

(* Cumulative ball sizes from [sources] in G[domain]; position [k] holds
   |B_k|, extended conceptually by the total count beyond the last layer.
   Leaves each domain node's distance in [st.value]; returns the max
   finite distance too. *)
let balls ?cost st g ~domain ~sources =
  let inside = Stamp.stamp st domain in
  let tail =
    Array.fold_left (fun t v -> Stamp.push st ~inside v t) 0 sources
  in
  let tail = Stamp.expand st g ~inside 0 tail in
  let maxd = st.value.(st.queue.(tail - 1)) in
  let cum = Array.make (maxd + 1) 0 in
  for j = 0 to tail - 1 do
    let d = st.value.(st.queue.(j)) in
    cum.(d) <- cum.(d) + 1
  done;
  for k = 1 to maxd do
    cum.(k) <- cum.(k) + cum.(k - 1)
  done;
  (match cost with
  | None -> ()
  | Some c ->
      Congest.Cost.charge c ~rounds:(maxd + 1)
        ~messages:(Array.length domain)
        ~max_bits:(2 * Congest.Bits.id_bits ~n:(Graph.n g))
        "lemma31.bfs");
  (cum, maxd)

let ball_size cum maxd total k = if k > maxd then total else cum.(k)

(* smallest k with 3·|B_k| >= bound·total; the BFS covers the whole
   connected domain so such k always exists for bound <= 3 *)
let first_radius cum maxd total ~num =
  let rec go k =
    if 3 * ball_size cum maxd total k >= num * total then k else go (k + 1)
  in
  go 0

(* r in [lo, hi] minimizing |B_{r+1}| / |B_r| *)
let weakest_layer cum maxd total ~lo ~hi =
  let best = ref lo and best_ratio = ref infinity in
  for r = lo to hi do
    let br = ball_size cum maxd total r in
    let br1 = ball_size cum maxd total (r + 1) in
    if br > 0 then begin
      let ratio = float_of_int br1 /. float_of_int br in
      if ratio < !best_ratio then begin
        best_ratio := ratio;
        best := r
      end
    end
  done;
  !best

(* Split [sources] in half along the preorder traversal of a BFS tree
   rooted at the smallest-identifier node of the domain (the paper's
   in-order trick for doing this in O(D) rounds). A node's parent is its
   first discoverer; a node's children are visited largest first. *)
let split_half st g ~domain ~sources =
  let mark = st.Stamp.mark and pos = st.value and queue = st.queue in
  let inside = Stamp.stamp st domain in
  Array.iteri (fun k v -> pos.(v) <- k) domain;
  (* rows are ascending, so each node's children, prepended as it
     discovers them, come out largest first: the order they are visited *)
  let children = Array.make (Array.length domain) [] in
  let root = domain.(0) in
  mark.(root) <- inside + 1;
  queue.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Graph.iter_neighbors g u (fun w ->
        if mark.(w) = inside then begin
          mark.(w) <- inside + 1;
          children.(pos.(u)) <- w :: children.(pos.(u));
          queue.(!tail) <- w;
          incr tail
        end)
  done;
  (* a stack, not recursion: tree depth can reach n on path-like graphs *)
  let in_s = Stamp.stamp st sources in
  let rec preorder acc = function
    | [] -> List.rev acc
    | v :: stack ->
        preorder
          (if mark.(v) = in_s then v :: acc else acc)
          (children.(pos.(v)) @ stack)
  in
  let order = Array.of_list (preorder [] [ root ]) in
  let k = Array.length order in
  let half = (k + 1) / 2 in
  (Array.sub order 0 half, Array.sub order half (k - half))

let run ?cost ?(epsilon = 0.5) s g ~domain =
  let n = Array.length domain in
  if n = 0 then invalid_arg "Sparse_cut.run: empty domain";
  Cluster.Carving.check_domain "Sparse_cut.run" g domain;
  Stamp.fit s g;
  let inside = Stamp.stamp s domain in
  if Stamp.bfs s g ~inside ~source:domain.(0) 0 < n then
    invalid_arg "Sparse_cut.run: domain disconnected";
  let k_window = window ~n ~epsilon in
  (* the domain nodes whose distance from the last [balls] sources
     satisfies [pred], ascending *)
  let collect pred =
    Array.of_seq
      (Seq.filter (fun v -> pred s.Stamp.value.(v)) (Array.to_seq domain))
  in
  let rec iterate sources =
    if Array.length sources = 1 then begin
      (* terminal case: carve the weakest layer past a around v *)
      let cum, maxd = balls ?cost s g ~domain ~sources in
      let a = first_radius cum maxd n ~num:1 in
      let r = weakest_layer cum maxd n ~lo:a ~hi:(a + k_window) in
      Component
        {
          u = collect (fun d -> d <= r);
          boundary = collect (fun d -> d = r + 1);
        }
    end
    else
      let cum, maxd = balls ?cost s g ~domain ~sources in
      let a = first_radius cum maxd n ~num:1 in
      let b = first_radius cum maxd n ~num:2 in
      if b - a >= k_window + 2 then begin
        let r = weakest_layer cum maxd n ~lo:a ~hi:(b - 2) in
        Cut
          {
            v1 = collect (fun d -> d <= r);
            v2 = collect (fun d -> d >= r + 2);
            removed = collect (fun d -> d = r + 1);
          }
      end
      else begin
        let s1, s2 = split_half s g ~domain ~sources in
        (match cost with
        | None -> ()
        | Some c ->
            Congest.Cost.charge c ~rounds:(maxd + 1) ~messages:n
              "lemma31.split");
        let cum1, maxd1 = balls ?cost s g ~domain ~sources:s1 in
        let cum2, maxd2 = balls ?cost s g ~domain ~sources:s2 in
        let a1 = first_radius cum1 maxd1 n ~num:1 in
        let a2 = first_radius cum2 maxd2 n ~num:1 in
        if a1 <= a2 then iterate s1 else iterate s2
      end
  in
  iterate domain
