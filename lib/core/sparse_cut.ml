open Dsgraph

type outcome =
  | Cut of { v1 : int list; v2 : int list; removed : int list }
  | Component of { u : int list; boundary : int list }

let delta ~n ~epsilon = epsilon /. Float.max (log (float_of_int n)) 1.0

let window ~n ~epsilon =
  let d = delta ~n ~epsilon in
  (* (1+d)^K >= 3 suffices: a set of size >= n/3 cannot keep growing by
     (1+d) for K layers without exceeding n *)
  int_of_float (Float.ceil (log 3.0 /. log (1.0 +. d))) + 1

(* Cumulative ball sizes from [sources] in G[domain]; position [k] holds
   |B_k|, extended conceptually by the total count beyond the last layer.
   Also returns the distance array and the max finite distance. *)
let balls ?cost g ~domain ~sources =
  let dist = Bfs.multi_distances ~mask:domain g ~sources in
  let maxd = Array.fold_left max 0 dist in
  let cum = Array.make (maxd + 1) 0 in
  Array.iter (fun d -> if d >= 0 then cum.(d) <- cum.(d) + 1) dist;
  for k = 1 to maxd do
    cum.(k) <- cum.(k) + cum.(k - 1)
  done;
  (match cost with
  | None -> ()
  | Some c ->
      Congest.Cost.charge c ~rounds:(maxd + 1) ~messages:(Mask.count domain)
        ~max_bits:(2 * Congest.Bits.id_bits ~n:(Graph.n g))
        "lemma31.bfs");
  (dist, cum, maxd)

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

(* Split S in half along the preorder traversal of a BFS tree rooted at the
   smallest-identifier node of the domain (the paper's in-order trick for
   doing this in O(D) rounds). *)
let split_half g ~domain ~s =
  let root = List.hd (Mask.to_list domain) in
  let parent = Bfs.parents ~mask:domain g ~source:root in
  let n = Graph.n g in
  let children = Array.make n [] in
  for v = n - 1 downto 0 do
    if parent.(v) >= 0 && parent.(v) <> v then
      children.(parent.(v)) <- v :: children.(parent.(v))
  done;
  let in_s = Mask.of_list n s in
  let order = ref [] in
  (* explicit stack: tree depth can reach n on path-like graphs *)
  let stack = Stack.create () in
  Stack.push root stack;
  while not (Stack.is_empty stack) do
    let v = Stack.pop stack in
    if Mask.mem in_s v then order := v :: !order;
    List.iter (fun c -> Stack.push c stack) children.(v)
  done;
  let order = List.rev !order in
  let k = List.length order in
  let rec take acc i = function
    | [] -> (List.rev acc, [])
    | x :: rest ->
        if i < (k + 1) / 2 then take (x :: acc) (i + 1) rest
        else (List.rev acc, x :: rest)
  in
  take [] 0 order

let run ?cost ?(epsilon = 0.5) g ~domain =
  let n = Mask.count domain in
  if n = 0 then invalid_arg "Sparse_cut.run: empty domain";
  let members = Mask.to_list domain in
  let dist0 = Bfs.multi_distances ~mask:domain g ~sources:[ List.hd members ] in
  List.iter
    (fun v ->
      if dist0.(v) < 0 then invalid_arg "Sparse_cut.run: domain disconnected")
    members;
  let k_window = window ~n ~epsilon in
  let collect dist pred =
    List.filter (fun v -> pred dist.(v)) members
  in
  let rec iterate s =
    match s with
    | [ v ] ->
        (* terminal case: carve the weakest layer past a around v *)
        let dist, cum, maxd = balls ?cost g ~domain ~sources:[ v ] in
        let a = first_radius cum maxd n ~num:1 in
        let r = weakest_layer cum maxd n ~lo:a ~hi:(a + k_window) in
        Component
          {
            u = collect dist (fun d -> d >= 0 && d <= r);
            boundary = collect dist (fun d -> d = r + 1);
          }
    | _ ->
        let dist, cum, maxd = balls ?cost g ~domain ~sources:s in
        let a = first_radius cum maxd n ~num:1 in
        let b = first_radius cum maxd n ~num:2 in
        if b - a >= k_window + 2 then begin
          let r = weakest_layer cum maxd n ~lo:a ~hi:(b - 2) in
          Cut
            {
              v1 = collect dist (fun d -> d >= 0 && d <= r);
              v2 = collect dist (fun d -> d >= r + 2);
              removed = collect dist (fun d -> d = r + 1);
            }
        end
        else begin
          let s1, s2 = split_half g ~domain ~s in
          (match cost with
          | None -> ()
          | Some c ->
              Congest.Cost.charge c ~rounds:(maxd + 1)
                ~messages:(Mask.count domain) "lemma31.split");
          let _, cum1, maxd1 = balls ?cost g ~domain ~sources:s1 in
          let _, cum2, maxd2 = balls ?cost g ~domain ~sources:s2 in
          let a1 = first_radius cum1 maxd1 n ~num:1 in
          let a2 = first_radius cum2 maxd2 n ~num:1 in
          if a1 <= a2 then iterate s1 else iterate s2
        end
  in
  iterate members
