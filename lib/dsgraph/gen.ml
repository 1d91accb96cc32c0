(* Generators stream edges straight into a Graph.Builder — one packed int
   per edge, no (int * int) list is ever materialized — so the large-scale
   families (rmat, power_law, pref_attach) stay flat-memory at n = 10^6+. *)

let build_edges n f =
  let b = Graph.Builder.create ~n in
  f (Graph.Builder.add_edge b);
  Graph.Builder.build b

let path n =
  build_edges n (fun add ->
      for i = 0 to n - 2 do
        add i (i + 1)
      done)

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: need n >= 3";
  build_edges n (fun add ->
      add (n - 1) 0;
      for i = 0 to n - 2 do
        add i (i + 1)
      done)

let complete n =
  build_edges n (fun add ->
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          add u v
        done
      done)

let star n =
  build_edges n (fun add ->
      for i = 1 to n - 1 do
        add 0 i
      done)

let grid w h =
  if w < 1 || h < 1 then invalid_arg "Gen.grid: need positive dimensions";
  let id x y = (y * w) + x in
  build_edges (w * h) (fun add ->
      for y = 0 to h - 1 do
        for x = 0 to w - 1 do
          if x + 1 < w then add (id x y) (id (x + 1) y);
          if y + 1 < h then add (id x y) (id x (y + 1))
        done
      done)

let torus w h =
  if w < 3 || h < 3 then invalid_arg "Gen.torus: need w, h >= 3";
  let id x y = (y * w) + x in
  build_edges (w * h) (fun add ->
      for y = 0 to h - 1 do
        for x = 0 to w - 1 do
          add (id x y) (id ((x + 1) mod w) y);
          add (id x y) (id x ((y + 1) mod h))
        done
      done)

let binary_tree n =
  build_edges n (fun add ->
      for v = 1 to n - 1 do
        add v ((v - 1) / 2)
      done)

let random_tree rng n =
  build_edges n (fun add ->
      for v = 1 to n - 1 do
        add v (Rng.int rng v)
      done)

let hypercube d =
  if d < 1 then invalid_arg "Gen.hypercube: need d >= 1";
  let n = 1 lsl d in
  build_edges n (fun add ->
      for v = 0 to n - 1 do
        for b = 0 to d - 1 do
          let u = v lxor (1 lsl b) in
          if u > v then add v u
        done
      done)

(* [Rng.bernoulli rng p] with its threshold hoisted out of the pair loop:
   the same draws and the same outcomes, at half the cost per pair *)
let erdos_renyi rng n p =
  let t = Rng.threshold p in
  build_edges n (fun add ->
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Rng.bits53 rng < t then add u v
        done
      done)

(* One random perfect matching on [0..n-1] avoiding self-pairs that would
   collide with [forbidden]; returns pairs. *)
let random_matching rng n forbidden =
  let max_attempts = 200 in
  let rec attempt k =
    if k >= max_attempts then None
    else
      let p = Rng.permutation rng n in
      let ok = ref true in
      let pairs = ref [] in
      let i = ref 0 in
      while !ok && !i < n do
        let u = p.(!i) and v = p.(!i + 1) in
        if forbidden u v then ok := false
        else pairs := ((min u v, max u v) : int * int) :: !pairs;
        i := !i + 2
      done;
      if !ok then Some !pairs else attempt (k + 1)
  in
  attempt 0

let random_regular rng n d =
  if n * d mod 2 <> 0 then invalid_arg "Gen.random_regular: n*d must be even";
  if d >= n then invalid_arg "Gen.random_regular: need d < n";
  if d mod 2 = 1 && n mod 2 = 1 then
    invalid_arg "Gen.random_regular: odd d needs even n";
  (* union of d matchings (n even) — for odd n with even d use d/2 random
     hamiltonian-cycle-ish 2-factors via permutations *)
  let seen = Hashtbl.create (n * d) in
  let forbidden u v = u = v || Hashtbl.mem seen (min u v, max u v) in
  let b = Graph.Builder.create ~n in
  if n mod 2 = 0 then
    for _ = 1 to d do
      match random_matching rng n forbidden with
      | Some pairs ->
          List.iter
            (fun (u, v) ->
              Hashtbl.add seen (u, v) ();
              Graph.Builder.add_edge b u v)
            pairs
      | None -> failwith "Gen.random_regular: could not complete matching"
    done
  else
    (* odd n, even d: d/2 random cyclic 2-factors *)
    for _ = 1 to d / 2 do
      let rec attempt k =
        if k >= 200 then failwith "Gen.random_regular: could not complete cycle"
        else
          let p = Rng.permutation rng n in
          let ok = ref true in
          let pairs = ref [] in
          for i = 0 to n - 1 do
            let u = p.(i) and v = p.((i + 1) mod n) in
            if forbidden u v then ok := false
            else pairs := (min u v, max u v) :: !pairs
          done;
          (* the pairs list may contain duplicates within this attempt *)
          let sorted = List.sort_uniq compare !pairs in
          if !ok && List.length sorted = n then sorted else attempt (k + 1)
      in
      let pairs = attempt 0 in
      List.iter
        (fun (u, v) ->
          Hashtbl.add seen (u, v) ();
          Graph.Builder.add_edge b u v)
        pairs
    done;
  Graph.Builder.build b

let rec expander rng n =
  let g = random_regular rng n 4 in
  if Components.is_connected g then g else expander rng n

let subdivide g k =
  if k < 0 then invalid_arg "Gen.subdivide: k must be >= 0";
  if k = 0 then g
  else begin
    let n = Graph.n g in
    let total = n + (k * Graph.m g) in
    let next = ref n in
    build_edges total (fun add ->
        Graph.iter_edges g (fun u v ->
            (* replace (u,v) by u - w1 - ... - wk - v *)
            let first = !next in
            next := !next + k;
            add u first;
            for i = 0 to k - 2 do
              add (first + i) (first + i + 1)
            done;
            add (first + k - 1) v))
  end

let ring_of_cliques k s =
  if k < 3 then invalid_arg "Gen.ring_of_cliques: need k >= 3";
  if s < 2 then invalid_arg "Gen.ring_of_cliques: need s >= 2";
  build_edges (k * s) (fun add ->
      for c = 0 to k - 1 do
        let base = c * s in
        for u = 0 to s - 1 do
          for v = u + 1 to s - 1 do
            add (base + u) (base + v)
          done
        done;
        (* bridge: last node of clique c to first node of clique c+1 *)
        let next_base = (c + 1) mod k * s in
        add (base + s - 1) next_base
      done)

let barbell s len =
  if s < 2 then invalid_arg "Gen.barbell: need s >= 2";
  build_edges ((2 * s) + len) (fun add ->
      let clique base =
        for u = 0 to s - 1 do
          for v = u + 1 to s - 1 do
            add (base + u) (base + v)
          done
        done
      in
      clique 0;
      clique (s + len);
      (* path of interior nodes s .. s+len-1 *)
      let prev = ref (s - 1) in
      for i = 0 to len - 1 do
        add !prev (s + i);
        prev := s + i
      done;
      add !prev (s + len))

let caterpillar rng spine legs =
  if spine < 1 then invalid_arg "Gen.caterpillar: need spine >= 1";
  build_edges (spine + legs) (fun add ->
      for i = 0 to spine - 2 do
        add i (i + 1)
      done;
      for l = 0 to legs - 1 do
        add (spine + l) (Rng.int rng spine)
      done)

let lollipop s len =
  if s < 2 then invalid_arg "Gen.lollipop: need s >= 2";
  build_edges (s + len) (fun add ->
      for u = 0 to s - 1 do
        for v = u + 1 to s - 1 do
          add u v
        done
      done;
      let prev = ref (s - 1) in
      for i = 0 to len - 1 do
        add !prev (s + i);
        prev := s + i
      done)

let barabasi_albert rng n k =
  if k < 1 || k >= n then invalid_arg "Gen.barabasi_albert: need 1 <= k < n";
  let b = Graph.Builder.create ~n in
  (* endpoint pool: each edge contributes both endpoints, so sampling the
     pool uniformly is sampling nodes proportionally to degree *)
  let capacity = (2 * ((k + 1) * k)) + (4 * n * k) in
  let pool = Array.make (max 2 capacity) 0 in
  let pool_size = ref 0 in
  let add_edge u v =
    Graph.Builder.add_edge b u v;
    pool.(!pool_size) <- u;
    pool.(!pool_size + 1) <- v;
    pool_size := !pool_size + 2
  in
  (* seed clique on k+1 nodes *)
  for u = 0 to k do
    for v = u + 1 to k do
      add_edge u v
    done
  done;
  for v = k + 1 to n - 1 do
    (* sample k distinct targets by degree; retry on duplicates *)
    let chosen = Hashtbl.create k in
    let guard = ref 0 in
    let snapshot = !pool_size in
    while Hashtbl.length chosen < k && !guard < 10_000 do
      incr guard;
      let t = pool.(Rng.int rng snapshot) in
      if t <> v && not (Hashtbl.mem chosen t) then Hashtbl.replace chosen t ()
    done;
    Hashtbl.iter (fun t () -> add_edge v t) chosen
  done;
  Graph.Builder.build b

let planted_partition rng k s p_in p_out =
  let t_in = Rng.threshold p_in and t_out = Rng.threshold p_out in
  build_edges (k * s) (fun add ->
      let n = k * s in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let t = if u / s = v / s then t_in else t_out in
          if Rng.bits53 rng < t then add u v
        done
      done)

let disjoint_union a b =
  let na = Graph.n a in
  build_edges (na + Graph.n b) (fun add ->
      Graph.iter_edges a add;
      Graph.iter_edges b (fun u v -> add (u + na) (v + na)))

let ensure_connected rng g =
  let comps = Components.components g in
  match comps with
  | [] | [ _ ] -> g
  | _ ->
      let pick rng comp =
        let a = Array.of_list comp in
        a.(Rng.int rng (Array.length a))
      in
      let rec bridge acc = function
        | c1 :: (c2 :: _ as rest) ->
            bridge ((pick rng c1, pick rng c2) :: acc) rest
        | _ -> acc
      in
      let extra = bridge [] comps in
      build_edges (Graph.n g) (fun add ->
          List.iter (fun (u, v) -> add u v) extra;
          Graph.iter_edges g add)

(* ------------------------------------------------------------------ *)
(* Large-scale families: streaming, O(m) work, O(m) packed ints        *)
(* ------------------------------------------------------------------ *)

let rmat ?(a = 0.57) ?(b = 0.19) ?(c = 0.19) rng ~n ~m =
  if n < 2 || n land (n - 1) <> 0 then
    invalid_arg "Gen.rmat: n must be a power of two >= 2";
  if a < 0.0 || b < 0.0 || c < 0.0 || a +. b +. c >= 1.0 then
    invalid_arg "Gen.rmat: quadrant probabilities must be in [0,1)";
  let scale =
    let s = ref 0 in
    while 1 lsl !s < n do
      incr s
    done;
    !s
  in
  let builder = Graph.Builder.create_sized ~n ~capacity:(max 0 m) in
  (* [Rng.float rng 1.0 < p] is [Rng.bits53 rng < Rng.threshold p], so
     each quadrant step is one int draw against three int thresholds *)
  let ta = Rng.threshold a
  and tab = Rng.threshold (a +. b)
  and tabc = Rng.threshold (a +. b +. c) in
  for _ = 1 to m do
    let u = ref 0 and v = ref 0 in
    for _ = 1 to scale do
      let x = Rng.bits53 rng in
      (* thresholds and draws are below 2^62, so [t - 1 - x] is negative,
         and its [asr 62] is -1, exactly when [x >= t]: the quadrant
         0..3 (a, b, c, d) is minus the sum, with no branch *)
      let q =
        -(((ta - 1 - x) asr 62) + ((tab - 1 - x) asr 62)
         + ((tabc - 1 - x) asr 62))
      in
      u := (2 * !u) + (q lsr 1);
      v := (2 * !v) + (q land 1)
    done;
    (* self-loops are dropped rather than resampled (keeps the draw count
       at exactly scale·m for any seed); duplicates merge at build *)
    if !u <> !v then Graph.Builder.add_edge builder !u !v
  done;
  Graph.Builder.build builder

let power_law ?(exponent = 2.5) rng ~n ~m =
  if n < 2 then invalid_arg "Gen.power_law: need n >= 2";
  if exponent <= 1.0 then invalid_arg "Gen.power_law: need exponent > 1";
  (* Chung-Lu style with a fixed edge budget: endpoints drawn i.i.d.
     proportionally to w_i = (i+1)^(-1/(exponent-1)), via binary search
     on the cumulative weights *)
  let alpha = -1.0 /. (exponent -. 1.0) in
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (float_of_int (i + 1) ** alpha);
    cum.(i) <- !acc
  done;
  let total = !acc in
  let sample () =
    (* [Rng.float rng total], inline so the draw is not boxed *)
    let x = float_of_int (Rng.bits53 rng) /. 9007199254740992.0 *. total in
    (* smallest i with cum.(i) > x *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) > x then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let b = Graph.Builder.create_sized ~n ~capacity:(max 0 m) in
  for _ = 1 to m do
    let u = sample () in
    let v = sample () in
    if u <> v then Graph.Builder.add_edge b u v
  done;
  Graph.Builder.build b

let pref_attach rng ~n ~k =
  if k < 1 || k >= n then invalid_arg "Gen.pref_attach: need 1 <= k < n";
  (* Streaming preferential attachment: like barabasi_albert but without
     the per-node distinct-target retry loop — duplicate picks merge at
     build time, which is the standard scalable variant. The endpoint
     pool lives in one Bigarray: two cells per added edge. *)
  let seed_edges = (k + 1) * k / 2 in
  let capacity = 2 * (seed_edges + (k * (max 0 (n - k - 1)))) in
  let pool =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 2 capacity)
  in
  let pool_size = ref 0 in
  let b = Graph.Builder.create_sized ~n ~capacity:(capacity / 2) in
  let add_edge u v =
    Graph.Builder.add_edge b u v;
    pool.{!pool_size} <- u;
    pool.{!pool_size + 1} <- v;
    pool_size := !pool_size + 2
  in
  for u = 0 to k do
    for v = u + 1 to k do
      add_edge u v
    done
  done;
  for v = k + 1 to n - 1 do
    let snapshot = !pool_size in
    for _ = 1 to k do
      (* v is not yet in the pool, so no self-loop is possible *)
      add_edge v pool.{Rng.int rng snapshot}
    done
  done;
  Graph.Builder.build b
