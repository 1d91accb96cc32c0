open Dsgraph

type status = Undecided | In_mis | Out

type msg = Priority of int * int (* priority, id *) | In_announce

type nstate = {
  rng : Rng.t;
  mutable status : status;
  mutable current : int * int; (* this iteration's (priority, id) *)
  mutable exchange : bool; (* alternating exchange/decide rounds *)
}

let priority_bits = 10

let run ?(seed = 1) g =
  let n = Graph.n g in
  let id_bits = Congest.Bits.id_bits ~n in
  let program =
    {
      Congest.Sim.init =
        (fun ~node ~neighbors:_ ->
          {
            rng = Rng.create ((seed * 1_000_003) + node);
            status = Undecided;
            current = (0, node);
            exchange = true;
          });
      round =
        (fun ~node ~state:st ~inbox ~out ->
          let exists p =
            Congest.Sim.Inbox.fold (fun acc _ m -> acc || p m) false inbox
          in
          (* if any neighbor joined the MIS last round, drop out *)
          let dominated () = exists (fun m -> m = In_announce) in
          (match st.status with
          (* decided nodes only react to announcements (nothing to do) *)
          | In_mis | Out -> Congest.Sim.halt out
          | Undecided ->
              if st.exchange then begin
                if dominated () then begin
                  st.status <- Out;
                  Congest.Sim.halt out
                end
                else begin
                  st.exchange <- false;
                  let p = Rng.int st.rng (1 lsl priority_bits) in
                  st.current <- (p, node);
                  Graph.iter_neighbors g node (fun nb ->
                      Congest.Sim.send out nb (Priority (p, node)))
                end
              end
              else begin
                st.exchange <- true;
                let beaten =
                  exists (function
                    | Priority (p, i) -> (p, i) > st.current
                    | In_announce -> false)
                in
                if dominated () then begin
                  st.status <- Out;
                  Congest.Sim.halt out
                end
                else if not beaten then begin
                  st.status <- In_mis;
                  Graph.iter_neighbors g node (fun nb ->
                      Congest.Sim.send out nb In_announce)
                end
              end);
          st);
    }
  in
  let bits = function
    | Priority _ -> 1 + priority_bits + id_bits
    | In_announce -> 1
  in
  let config =
    Congest.Sim.Config.(
      default
      |> with_max_rounds ((8 * id_bits) + 64)
      |> with_bandwidth
           (max (Congest.Bits.bandwidth ~n) (1 + priority_bits + id_bits)))
  in
  let states, stats = Congest.Sim.simulate ~config ~bits g program in
  (Array.map (fun st -> st.status = In_mis) states, stats)
