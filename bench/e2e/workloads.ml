(* The four workloads. Each builds its input from the seed in [setup]
   and returns an [iterate] function: calling [iterate tracer] runs one
   timed iteration through the library's public functions and returns
   the untimed oracle that checks what it produced. *)

open Dsgraph
module Audit = Workload.Audit
module Repair = Workload.Repair
module CR = Cluster.Repair
module Cl = Cluster.Clustering
module Dec = Cluster.Decomposition

type size = {
  rmat_log2 : int;
  rmat_samples : int;
  thm_side : int;
  sim_side : int;
  churn_side : int;
  churn_steps : int;
}

(* Sized so that one iteration takes 0.2-0.8 s on an idle 2 GHz Xeon
   vCPU: a run then holds 30-100 timed iterations, and the medians over
   them hold still. *)
let full =
  {
    rmat_log2 = 14;
    rmat_samples = 312_500;
    thm_side = 128;
    sim_side = 16;
    churn_side = 32;
    churn_steps = 400;
  }

let tiny =
  {
    rmat_log2 = 10;
    rmat_samples = 20_000;
    thm_side = 16;
    sim_side = 4;
    churn_side = 8;
    churn_steps = 10;
  }

type report = {
  failures : string list;  (** rejected checks, one message each *)
  ops : int;  (** operations the checks covered *)
  digest : string;  (** of the labels and colors produced *)
  step_s : float list;  (** per-operation seconds; [] when the iteration is one operation *)
  counters : (string * float) list;  (** per-layer counts *)
}

type prepared = {
  iterate : Spans.t option -> unit -> report;
  setup_counters : (string * float) list;
  cleanup : unit -> unit;
}

(* Why each workload exists is recorded in BENCHMARK.json. *)
type t = {
  name : string;
  setup : size -> Spans.t option -> seed:int -> dir:string -> prepared;
}

let span = Spans.span
let check what = function Ok () -> [] | Error e -> [ what ^ ": " ^ e ]

let digest_nodes n f =
  let b = Buffer.create (n * 8) in
  for v = 0 to n - 1 do
    let a, c = f v in
    Printf.bprintf b "%d:%d " a c
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A side x side grid with scrambled node ids, so no engine wins only on
   id-ordered memory locality. The order is fixed, not drawn from the
   run's seed: Thm 2.3's cost on the same grid differs 2x between id
   orders (36 against 287 clusters), which would swamp any bound. *)
let scrambled_grid side =
  let g = Gen.grid side side in
  let perm = Rng.permutation (Rng.create 42) (Graph.n g) in
  let b = Graph.Builder.create ~n:(Graph.n g) in
  Graph.iter_edges g (fun u v -> Graph.Builder.add_edge b perm.(u) perm.(v));
  Graph.Builder.build b

let diam_ub a =
  match Audit.max_diameter_ub a with Some d -> float_of_int d | None -> -1.0

let audit_counters (a : Audit.t) =
  [
    ("quality.colors", float_of_int a.Audit.num_colors);
    ("quality.diam_ub", diam_ub a);
    ("workload.audit.certs", float_of_int (List.length a.Audit.certs));
  ]

(* One certified decomposition: decompose under a cost meter, certify
   every cluster, verify the certificate against the graph alone. *)
let certified ~layer decompose g tr =
  let cost = Congest.Cost.create () in
  let d = span tr layer (fun () -> decompose ~cost g) in
  let a = span tr "workload.audit_certify" (fun () -> Audit.certify_decomposition d) in
  let verdict = span tr "workload.audit_verify" (fun () -> Audit.verify g a) in
  fun () ->
    let cl = Dec.clustering d in
    {
      failures =
        check "Audit.verify" verdict
        @ (if a.Audit.dead = 0 then []
           else [ "decomposition left nodes unclustered" ]);
      ops = 1;
      digest =
        digest_nodes (Graph.n g) (fun v -> (Cl.cluster_of cl v, Dec.color_of_node d v));
      step_s = [];
      counters =
        audit_counters a
        @ [
            ("congest.rounds", float_of_int (Congest.Cost.rounds cost));
            ("congest.max_bits", float_of_int (Congest.Cost.max_message_bits cost));
          ];
    }

let rmat_greedy =
  {
    name = "rmat-greedy";
    setup =
      (fun size tr ~seed ~dir ->
        let path = Filename.concat dir (Printf.sprintf "rmat-%d.csr" seed) in
        let remove () = if Sys.file_exists path then Sys.remove path in
        let g =
          span tr "dsgraph.gen" (fun () ->
              Gen.rmat (Rng.create seed) ~n:(1 lsl size.rmat_log2)
                ~m:size.rmat_samples)
        in
        (* an earlier set-up may still map the old file: unlink, never
           overwrite in place *)
        remove ();
        span tr "dsgraph.io_save" (fun () -> Io.save_csr path g);
        let mb = float_of_int (Unix.stat path).Unix.st_size /. 1e6 in
        let g = span tr "dsgraph.io_load" (fun () -> Io.load_csr path) in
        {
          iterate =
            certified ~layer:"baseline.greedy"
              (fun ~cost g -> Baseline.Greedy.decompose ~cost g)
              g;
          setup_counters = [ ("dsgraph.io_save.mb", mb) ];
          cleanup = remove;
        });
  }

let grid_thm23 =
  {
    name = "grid-thm23";
    setup =
      (fun size tr ~seed:_ ~dir:_ ->
        let g = span tr "dsgraph.gen" (fun () -> scrambled_grid size.thm_side) in
        {
          iterate =
            certified ~layer:"strongdecomp.strong"
              (fun ~cost g -> Strongdecomp.Netdecomp.strong ~cost g)
              g;
          setup_counters = [];
          cleanup = ignore;
        });
  }

let epsilon = 0.5

let grid_sim =
  {
    name = "grid-sim";
    setup =
      (fun size tr ~seed:_ ~dir:_ ->
        let g = span tr "dsgraph.gen" (fun () -> Gen.grid size.sim_side size.sim_side) in
        let iterate tr =
          let r =
            span tr "weakdiam.sim_carve" (fun () ->
                Weakdiam.Distributed.carve g ~epsilon)
          in
          fun () ->
            let cv = r.Weakdiam.Distributed.carving in
            let a = Audit.certify_carving cv in
            let st = r.Weakdiam.Distributed.sim_stats in
            {
              failures =
                (if Weakdiam.Distributed.matches_engine r then []
                 else [ "simulated carving differs from the engine" ])
                @ check "Audit.verify" (Audit.verify g a)
                @ check "Carving.check_weak" (Cluster.Carving.check_weak ~epsilon cv);
              ops = 1;
              digest =
                digest_nodes (Graph.n g) (fun v ->
                    (Cl.cluster_of cv.Cluster.Carving.clustering v, 0));
              step_s = [];
              counters =
                [
                  ("congest.rounds", float_of_int st.Congest.Sim.rounds_used);
                  ("congest.messages", float_of_int st.Congest.Sim.total_messages);
                  ("congest.max_bits", float_of_int st.Congest.Sim.max_bits_seen);
                  ("weakdiam.dead_frac", Cluster.Carving.dead_fraction cv);
                  ("quality.diam_ub", diam_ub a);
                ];
            }
        in
        { iterate; setup_counters = []; cleanup = ignore });
  }

let grid_churn =
  {
    name = "grid-churn";
    setup =
      (fun size tr ~seed ~dir:_ ->
        let g = span tr "dsgraph.gen" (fun () -> Gen.grid size.churn_side size.churn_side) in
        let d = span tr "baseline.greedy" (fun () -> Baseline.Greedy.decompose g) in
        let session0 =
          span tr "workload.repair_start" (fun () -> Repair.start_decomposition d)
        in
        let deltas =
          span tr "bench.schedule" (fun () ->
              Churn.schedule ~seed ~steps:size.churn_steps g)
        in
        let greedy = Workload.Algorithms.find_decomposer "greedy" in
        let iterate tr =
          let session = ref session0 in
          let failures = ref [] in
          let steps = ref [] in
          let dirty = ref 0 and fresh = ref 0 and carried = ref 0 in
          let touched = ref 0.0 in
          Array.iteri
            (fun i delta ->
              let t0 = Unix.gettimeofday () in
              let recarve sub =
                span tr "baseline.recarve" (fun () ->
                    Repair.recarve_decomposer greedy ~seed:((seed * 1009) + i) sub)
              in
              let prev = !session in
              let next, rep =
                span tr "workload.repair" (fun () ->
                    Repair.repair ~halo:1 ~recarve prev delta)
              in
              let post = CR.graph next.Repair.state in
              let verdict =
                span tr "workload.verify_cert" (fun () ->
                    Repair.verify_cert ~prev ~post rep.Repair.cert)
              in
              steps := (Unix.gettimeofday () -. t0) :: !steps;
              failures :=
                check (Printf.sprintf "step %d: Repair.verify_cert" i) verdict
                @ (if next.Repair.audit.Audit.dead = 0 then []
                   else [ Printf.sprintf "step %d: survivors left unclustered" i ])
                @ !failures;
              dirty := !dirty + rep.Repair.dirty_clusters;
              fresh := !fresh + rep.Repair.fresh_clusters;
              carried := !carried + rep.Repair.carried_clusters;
              touched := !touched +. rep.Repair.touched_fraction;
              session := next)
            deltas;
          let n = float_of_int (Array.length deltas) in
          let s = !session and failures = List.rev !failures and step_s = List.rev !steps in
          let counters =
            [
              ("cluster.repair.dirty", float_of_int !dirty /. n);
              ("cluster.repair.fresh", float_of_int !fresh /. n);
              ("cluster.repair.carried", float_of_int !carried /. n);
              ("cluster.repair.touched_frac", !touched /. n);
              ("cluster.clusters", float_of_int (Cl.num_clusters s.Repair.clustering));
            ]
          in
          fun () ->
            {
              failures;
              ops = Array.length deltas;
              digest =
                digest_nodes (Graph.n g) (fun v ->
                    let c = Cl.cluster_of s.Repair.clustering v in
                    (c, if c >= 0 then s.Repair.colors.(c) else -1));
              step_s;
              counters = audit_counters s.Repair.audit @ counters;
            }
        in
        { iterate; setup_counters = []; cleanup = ignore });
  }

let all = [ rmat_greedy; grid_thm23; grid_sim; grid_churn ]
let find name = List.find_opt (fun w -> w.name = name) all
