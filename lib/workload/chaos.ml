open Dsgraph
module CR = Cluster.Repair

type algo = Decomposer of string | Carver of string

type spec = {
  algo : algo;
  family : string;
  n : int;
  epsilon : float;
  seed : int;
  steps : int;
  crashes : int;
  revive_prob : float;
  edge_dels : int;
  edge_adds : int;
  halo : int;
  max_touched : float;
}

let spec ?(epsilon = 0.2) ?(steps = 2) ?(crashes = 1) ?(revive_prob = 0.25)
    ?(edge_dels = 1) ?(edge_adds = 1) ?(halo = 1) ?(max_touched = 1.0) algo
    ~family ~n ~seed =
  if steps < 1 then invalid_arg "Chaos.spec: steps < 1";
  if halo < 0 then invalid_arg "Chaos.spec: negative halo";
  {
    algo;
    family;
    n;
    epsilon;
    seed;
    steps;
    crashes;
    revive_prob;
    edge_dels;
    edge_adds;
    halo;
    max_touched;
  }

let algo_label = function
  | Decomposer s -> "decomp:" ^ s
  | Carver s -> "carve:" ^ s

type step_row = {
  r_spec : spec;
  step : int;
  d_crashes : int;
  d_revives : int;
  d_dels : int;
  d_adds : int;
  survivors : int;
  dirty : int;
  carried : int;
  fresh : int;
  touched : int;
  touched_fraction : float;
  repair_seconds : float;
  scratch_seconds : float;
  scratch_valid : bool;
  violations : string list;
}

type result = { rows : step_row list; failures : (int * string) list }

(* ------------------------------------------------------------------ *)
(* Seeded delta generation                                             *)
(* ------------------------------------------------------------------ *)

(* Every component is sampled against the *pre*-delta state so the
   delta always passes [Cluster.Repair.step]'s validation: crashes
   among up nodes (always leaving at least two up), revivals among down
   nodes, deletions among live current edges avoiding this step's crash
   victims, insertions among up non-adjacent pairs (rejection-sampled;
   re-inserting a previously deleted edge is fine and un-deletes it). *)
let gen_delta rng sp st =
  let g = CR.graph st in
  let n = Graph.n g in
  let up_arr = Array.of_list (Mask.to_list (CR.survivors st)) in
  let n_up = Array.length up_arr in
  let c_budget = min sp.crashes (max 0 (n_up - 2)) in
  let crash =
    if c_budget = 0 then []
    else begin
      Rng.shuffle rng up_arr;
      Array.to_list (Array.sub up_arr 0 c_budget)
    end
  in
  let crashed = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace crashed v ()) crash;
  let revive =
    List.filter
      (fun v -> CR.is_down st v && Rng.bernoulli rng sp.revive_prob)
      (List.init n Fun.id)
  in
  let live_edges = ref [] in
  Graph.iter_edges g (fun u v ->
      if not (Hashtbl.mem crashed u || Hashtbl.mem crashed v) then
        live_edges := (u, v) :: !live_edges);
  let cand = Array.of_list !live_edges in
  Rng.shuffle rng cand;
  let del_edges =
    Array.to_list (Array.sub cand 0 (min sp.edge_dels (Array.length cand)))
  in
  let pool =
    Array.of_list
      (List.filter (fun v -> not (Hashtbl.mem crashed v)) (Array.to_list up_arr))
  in
  let add_edges = ref [] in
  let added = ref 0 in
  let tries = ref 0 in
  while
    !added < sp.edge_adds
    && !tries < 50 * (sp.edge_adds + 1)
    && Array.length pool >= 2
  do
    incr tries;
    let u = pool.(Rng.int rng (Array.length pool)) in
    let v = pool.(Rng.int rng (Array.length pool)) in
    if u <> v && not (Graph.is_edge g u v) then begin
      let e = if u < v then (u, v) else (v, u) in
      if (not (List.mem e !add_edges)) && not (List.mem e del_edges) then begin
        add_edges := e :: !add_edges;
        incr added
      end
    end
  done;
  CR.delta ~crash ~revive ~del_edges ~add_edges:!add_edges ()

(* ------------------------------------------------------------------ *)
(* Engine plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let kind_of = function
  | Decomposer _ -> Audit.Decomposition
  | Carver _ -> Audit.Carving

(* initial run on the fault-free graph + a per-seed recarve closure *)
let start sp g =
  match sp.algo with
  | Decomposer name ->
      let a = Algorithms.find_decomposer name in
      let d = a.Algorithms.run ~cost:(Congest.Cost.create ()) ~seed:sp.seed g in
      ( Repair.start_decomposition d,
        fun ~seed sub -> Repair.recarve_decomposer a ~seed sub )
  | Carver name ->
      let a = Algorithms.find_carver name in
      let cv =
        a.Algorithms.run
          ~cost:(Congest.Cost.create ())
          ~seed:sp.seed g ~epsilon:sp.epsilon
      in
      ( Repair.start_carving cv,
        fun ~seed sub -> Repair.recarve_carver a ~seed ~epsilon:sp.epsilon sub )

(* from-scratch baseline: same engine on the survivor subgraph,
   including certification — the cost a repair is competing against *)
let scratch sp ~recarve ~seed post domain =
  let t0 = Congest.Resource.now () in
  let sub, _back = Subgraph.induce post domain in
  let labels, lcolors = recarve ~seed sub in
  let cl = Cluster.Clustering.make sub ~cluster_of:labels in
  let k = Cluster.Clustering.num_clusters cl in
  let color_of_cluster =
    Array.init k (fun c ->
        match Cluster.Clustering.members cl c with
        | [] -> 0
        | v :: _ -> max 0 lcolors.(labels.(v)))
  in
  let audit =
    match kind_of sp.algo with
    | Audit.Decomposition ->
        Audit.certify_decomposition
          (Cluster.Decomposition.make cl ~color_of_cluster)
    | Audit.Carving ->
        Audit.certify_carving
          (Cluster.Carving.make cl ~domain:(Mask.full (Graph.n sub)))
  in
  let valid =
    Result.is_ok (Audit.verify sub audit)
    && (kind_of sp.algo = Audit.Carving
       || Cluster.Clustering.clustered_count cl = Graph.n sub)
  in
  (Congest.Resource.now () -. t0, valid)

(* ------------------------------------------------------------------ *)
(* The detect -> repair -> re-audit loop                               *)
(* ------------------------------------------------------------------ *)

let run sp =
  let fam = Suite.find sp.family in
  let g = fam.Suite.build ~seed:sp.seed ~n:sp.n in
  let n = Graph.n g in
  let session0, recarve = start sp g in
  let rng = Rng.create ((sp.seed * 31) + 17) in
  let rows = ref [] in
  let failures = ref [] in
  let session = ref session0 in
  for step = 1 to sp.steps do
    let d = gen_delta rng sp !session.Repair.state in
    let recarve_seed = (sp.seed * 1009) + step in
    let prev = !session in
    let s', rep =
      Repair.repair ~halo:sp.halo ~recarve:(recarve ~seed:recarve_seed) prev d
    in
    let post = CR.graph s'.Repair.state in
    let viol = ref [] in
    let violate fmt = Printf.ksprintf (fun s -> viol := s :: !viol) fmt in
    (match Repair.verify_cert ~prev ~post rep.Repair.cert with
    | Ok () -> ()
    | Error e -> violate "certificate rejected: %s" e);
    (match kind_of sp.algo with
    | Audit.Decomposition ->
        (* every survivor must be clustered again *)
        if s'.Repair.audit.Audit.dead <> 0 then
          violate "decomposition left %d survivors unclustered"
            s'.Repair.audit.Audit.dead
    | Audit.Carving ->
        (* cross-check through the fault sweeps' survivor verifier *)
        let labels =
          Array.init n (Cluster.Clustering.cluster_of s'.Repair.clustering)
        in
        let surv =
          List.filter
            (fun v -> s'.Repair.base_domain.(v))
            (Mask.to_list (CR.survivors s'.Repair.state))
        in
        let verdict, _ = Audit.check_survivors post ~survivors:surv ~labels in
        (match verdict with
        | Ok () -> ()
        | Error e -> violate "survivor check rejected: %s" e));
    if sp.max_touched < 1.0 && rep.Repair.touched_fraction > sp.max_touched
    then
      violate "touched fraction %.3f exceeds bound %.3f"
        rep.Repair.touched_fraction sp.max_touched;
    let survivors = Mask.count (CR.survivors s'.Repair.state) in
    let scratch_seconds, scratch_valid =
      scratch sp ~recarve ~seed:recarve_seed post
        (List.filter
           (fun v -> not (CR.is_down s'.Repair.state v))
           (List.init n Fun.id))
    in
    let row =
      {
        r_spec = sp;
        step;
        d_crashes = List.length d.CR.crash;
        d_revives = List.length d.CR.revive;
        d_dels = List.length d.CR.del_edges;
        d_adds = List.length d.CR.add_edges;
        survivors;
        dirty = rep.Repair.dirty_clusters;
        carried = rep.Repair.carried_clusters;
        fresh = rep.Repair.fresh_clusters;
        touched = rep.Repair.touched_nodes;
        touched_fraction = rep.Repair.touched_fraction;
        repair_seconds = rep.Repair.seconds;
        scratch_seconds;
        scratch_valid;
        violations = List.rev !viol;
      }
    in
    rows := row :: !rows;
    List.iter (fun v -> failures := (step, v) :: !failures) (List.rev !viol);
    session := s'
  done;
  { rows = List.rev !rows; failures = List.rev !failures }

let sweep specs = List.map run specs

let default_specs
    ?(algos =
      [
        (* a granularity mix: fine strong clusters (greedy, gha19), weak
           certificates (ls93 — always-dirty path), one giant cluster
           (thm2.3 — full re-carve path), and a carver (thm2.2) *)
        Decomposer "greedy"; Decomposer "gha19"; Decomposer "ls93";
        Decomposer "thm2.3"; Carver "thm2.2";
      ]) ?(families = [ "grid"; "er"; "reg4" ]) ?(n = 64)
    ?(steps = 2) ?(count = 24) ~seed () =
  let na = List.length algos and nf = List.length families in
  if na = 0 || nf = 0 then invalid_arg "Chaos.default_specs: empty axis";
  List.init count (fun i ->
      spec ~steps
        (List.nth algos (i mod na))
        ~family:(List.nth families (i / na mod nf))
        ~n ~seed:(seed + (1000 * i)))

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)
(* ------------------------------------------------------------------ *)

let csv_header =
  "algo,family,n,epsilon,seed,halo,step,crashes,revives,edge_dels,edge_adds,survivors,dirty,carried,fresh,touched,touched_fraction,repair_seconds,scratch_seconds,cost_ratio,scratch_valid,violations\n"

let csv_row r =
  let sp = r.r_spec in
  Printf.sprintf
    "%s,%s,%d,%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%.6f,%.6f,%.3f,%b,%s\n"
    (algo_label sp.algo) sp.family sp.n sp.epsilon sp.seed sp.halo r.step
    r.d_crashes r.d_revives r.d_dels r.d_adds r.survivors r.dirty r.carried
    r.fresh r.touched r.touched_fraction r.repair_seconds r.scratch_seconds
    (r.repair_seconds /. Float.max 1e-9 r.scratch_seconds)
    r.scratch_valid
    (String.concat ";"
       (List.map
          (fun v ->
            String.map (function ',' | '\n' -> ' ' | c -> c) v)
          r.violations))

let csv rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf csv_header;
  List.iter (fun r -> Buffer.add_string buf (csv_row r)) rows;
  Buffer.contents buf
