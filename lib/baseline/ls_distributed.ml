open Dsgraph

type state = {
  best_prio : int;
  best_slack : int;
  announced : (int * int) option; (* last pair broadcast *)
}

let better (p1, s1) (p2, s2) = p1 > p2 || (p1 = p2 && s1 > s2)

(* Shared between the plain and reliable-transport runs so that, given
   equal RNG states, both execute the identical node program — the basis
   of the zero-fault transparency tests. *)
let build rng g ~epsilon =
  let n = Graph.n g in
  let cap = Linial_saks.max_radius ~n ~epsilon in
  (* per-node radii drawn up front; nodes only use their own entry *)
  let radii =
    Array.init n (fun _ -> min cap (Rng.geometric rng epsilon))
    [@@domain_unsafe
      "pre-drawn radius table captured by the program's init closure; \
       every simulated node reads only its own entry, so it is \
       read-shared across a future domain fan-out"]
  in
  let msg_bits = Congest.Bits.id_bits ~n + Congest.Bits.int_bits cap in
  let program =
    {
      Congest.Sim.init =
        (fun ~node ~neighbors:_ ->
          { best_prio = node; best_slack = radii.(node); announced = None });
      round =
        (fun ~node ~state ~inbox ~out ->
          let best =
            Congest.Sim.Inbox.fold
              (fun acc _ pair -> if better pair acc then pair else acc)
              (state.best_prio, state.best_slack)
              inbox
          in
          let state = { state with best_prio = fst best; best_slack = snd best } in
          let should_send =
            state.best_slack >= 1
            && state.announced <> Some (state.best_prio, state.best_slack)
          in
          if should_send then begin
            let m = (state.best_prio, state.best_slack - 1) in
            Graph.iter_neighbors g node (fun nb -> Congest.Sim.send out nb m);
            { state with announced = Some (state.best_prio, state.best_slack) }
          end
          else begin
            Congest.Sim.halt out;
            state
          end);
    }
  in
  (cap, msg_bits, program)

let cluster_of_states states =
  Array.map (fun s -> if s.best_slack >= 1 then s.best_prio else -1) states

let wrap_conformance conformance program =
  match conformance with
  | None -> program
  | Some c -> c.Congest.Conformance.instrument program

let attempt ?conformance ?trace rng g ~epsilon =
  let cap, msg_bits, program = build rng g ~epsilon in
  let program = wrap_conformance conformance program in
  let config =
    { Congest.Sim.Config.default with max_rounds = Some ((2 * cap) + 8); trace }
  in
  let states, stats =
    Congest.Sim.simulate ~config ~bits:(fun _ -> msg_bits) g program
  in
  (cluster_of_states states, stats)

type reliable_attempt = {
  cluster_of : int array;
  crashed : int list;
  finished : bool array;
  dead_view : int list array;
  sim_stats : Congest.Sim.stats;
  transport : Congest.Reliable.transport_stats;
  inner_rounds : int;
}

let attempt_reliable ?adversary ?conformance ?(liveness_timeout = 64) ?trace
    rng g ~epsilon =
  let cap, msg_bits, program = build rng g ~epsilon in
  let program = wrap_conformance conformance program in
  (* the flood quiesces within 2*cap + 2 inner rounds; the rest is slack *)
  let inner_rounds = (2 * cap) + 8 in
  let cfg = Congest.Reliable.config ~inner_rounds ~liveness_timeout () in
  let sim =
    { Congest.Sim.Config.default with adversary; on_incomplete = `Ignore; trace }
  in
  let r =
    Congest.Reliable.simulate ~sim cfg ~bits:(fun _ -> msg_bits) g program
  in
  let cluster_of = cluster_of_states r.Congest.Reliable.states in
  let crashed = r.Congest.Reliable.sim_stats.Congest.Sim.faults.crashed in
  List.iter (fun v -> cluster_of.(v) <- -1) crashed;
  {
    cluster_of;
    crashed;
    finished = r.Congest.Reliable.finished;
    dead_view = r.Congest.Reliable.dead_view;
    sim_stats = r.Congest.Reliable.sim_stats;
    transport = r.Congest.Reliable.transport;
    inner_rounds;
  }

(* The Las Vegas retry loop; [on_attempt] sees every attempt's stats,
   the rejected ones too. *)
let retry ~on_attempt ?(max_retries = 60) ?trace rng g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Ls_distributed.carve: epsilon must be in (0, 1)";
  let n = Graph.n g in
  let domain = Mask.full n in
  Congest.Span.enter trace "ls_carve";
  let rec go k =
    if k >= max_retries then (
      Congest.Span.exit trace;
      failwith "Ls_distributed.carve: retries exhausted (unlucky sampling)");
    Congest.Span.enter_idx trace "attempt" k;
    let cluster_of, stats = attempt ?trace rng g ~epsilon in
    Congest.Span.exit trace;
    on_attempt stats;
    let clustering = Cluster.Clustering.make g ~cluster_of in
    let carving = Cluster.Carving.make clustering ~domain in
    if Cluster.Carving.dead_fraction carving <= epsilon then begin
      Congest.Span.exit trace;
      (carving, stats)
    end
    else go (k + 1)
  in
  go 0

let carve = retry ~on_attempt:ignore

type decompose_stats = {
  total_rounds : int;
  total_messages : int;
  max_bits : int;
}

let decompose ?max_retries ?trace rng g =
  let stats = ref { total_rounds = 0; total_messages = 0; max_bits = 0 } in
  let on_attempt (st : Congest.Sim.stats) =
    stats :=
      {
        total_rounds = !stats.total_rounds + st.rounds_used;
        total_messages = !stats.total_messages + st.total_messages;
        max_bits = max !stats.max_bits st.max_bits_seen;
      }
  in
  (* the carving of G[domain], run on the induced subgraph *)
  let carver ?cost:_ g ~domain ~epsilon =
    let sub, back = Subgraph.induce g (Array.to_list domain) in
    let carving, _ = retry ~on_attempt ?max_retries ?trace rng sub ~epsilon in
    Array.of_list
      (List.map
         (fun members -> Array.of_list (List.map (Array.get back) members))
         (Cluster.Clustering.clusters carving.Cluster.Carving.clustering))
  in
  (* the meter only carries [trace] to the color loop's spans: nothing is
     charged to it, so no [Cost_charged] event repeats a simulated round *)
  let cost = Congest.Cost.create ?trace () in
  let d = Strongdecomp.Netdecomp.of_carver ~cost carver g in
  (d, !stats)
