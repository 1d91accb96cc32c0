open Dsgraph

(* ------------------------------------------------------------------ *)
(* Leader election: flood the minimum identifier.                      *)
(* ------------------------------------------------------------------ *)

let config ?adversary ?trace () =
  { Sim.Config.default with adversary; trace }

let wrap conformance program =
  match conformance with
  | None -> program
  | Some c -> c.Conformance.instrument program

type leader_state = { best : int; dirty : bool }

let leader_election ?adversary ?conformance ?trace g =
  let n = Graph.n g in
  let id_bits = Bits.id_bits ~n in
  let program =
    {
      Sim.init = (fun ~node ~neighbors:_ -> { best = node; dirty = true });
      round =
        (fun ~node ~state ~inbox ~out ->
          let best = Sim.Inbox.fold (fun acc _ m -> min acc m) state.best inbox in
          if state.dirty || best < state.best then
            Graph.iter_neighbors g node (fun nb -> Sim.send out nb best)
          else Sim.halt out;
          { best; dirty = false });
    }
  in
  let states, stats =
    Sim.simulate ~config:(config ?adversary ?trace ())
      ~bits:(fun _ -> id_bits)
      g (wrap conformance program)
  in
  (Array.map (fun s -> s.best) states, stats)

(* ------------------------------------------------------------------ *)
(* BFS wave.                                                           *)
(* ------------------------------------------------------------------ *)

type bfs_state = { dist : int; parent : int; announced : bool }

let bfs ?adversary ?conformance ?trace ?(member = fun _ -> true) g ~source =
  let n = Graph.n g in
  let msg_bits = Bits.int_bits (max 1 n) in
  let program =
    {
      Sim.init =
        (fun ~node ~neighbors:_ ->
          if node = source then { dist = 0; parent = source; announced = false }
          else { dist = -1; parent = -1; announced = false });
      round =
        (fun ~node ~state ~inbox ~out ->
          if not (member node) then begin
            Sim.halt out;
            state
          end
          else
            let state =
              if state.dist >= 0 || Sim.Inbox.is_empty inbox then state
              else
                (* first arrival wins distance ties *)
                let best_u, best_d =
                  Sim.Inbox.fold
                    (fun (bu, bd) u d -> if d < bd then (u, d) else (bu, bd))
                    (-1, max_int) inbox
                in
                { dist = best_d + 1; parent = best_u; announced = false }
            in
            if state.dist >= 0 && not state.announced then begin
              Graph.iter_neighbors g node (fun nb -> Sim.send out nb state.dist);
              { state with announced = true }
            end
            else begin
              Sim.halt out;
              state
            end);
    }
  in
  let states, stats =
    Sim.simulate ~config:(config ?adversary ?trace ())
      ~bits:(fun _ -> msg_bits)
      g (wrap conformance program)
  in
  ((Array.map (fun s -> s.dist) states, Array.map (fun s -> s.parent) states), stats)

(* ------------------------------------------------------------------ *)
(* Convergecast over a rooted forest.                                  *)
(* ------------------------------------------------------------------ *)

type 'a up_msg = Child | Up of 'a

type 'a up_state = {
  round_no : int;
  pending : int; (* children that have not reported yet *)
  acc : 'a;
  sent_up : bool;
}

(* Timing invariant: every node sends [Child] to its parent in round 1, so
   all [Child] messages arrive exactly in round 2; [Up] messages are sent
   in rounds >= 2 and arrive in rounds >= 3. Hence after processing the
   round-2 inbox, [pending] equals the true child count, and from round 2 on
   [pending = 0] means the whole subtree has reported. *)
let convergecast ?adversary ?conformance ?trace g ~parent ~value ~add ~bits =
  let program =
    {
      Sim.init =
        (fun ~node ~neighbors:_ ->
          { round_no = 0; pending = 0; acc = value node; sent_up = false });
      round =
        (fun ~node ~state ~inbox ~out ->
          if parent.(node) = -1 then begin
            Sim.halt out;
            state
          end
          else
            let state = { state with round_no = state.round_no + 1 } in
            if state.round_no = 1 then begin
              if parent.(node) <> node then Sim.send out parent.(node) Child;
              state
            end
            else
              let state =
                Sim.Inbox.fold
                  (fun st _ m ->
                    match m with
                    | Child -> { st with pending = st.pending + 1 }
                    | Up a ->
                        { st with pending = st.pending - 1; acc = add st.acc a })
                  state inbox
              in
              let is_root = parent.(node) = node in
              if state.pending = 0 && not state.sent_up && not is_root then begin
                Sim.send out parent.(node) (Up state.acc);
                { state with sent_up = true }
              end
              else begin
                if state.sent_up || (is_root && state.pending = 0) then
                  Sim.halt out;
                state
              end);
    }
  in
  let states, stats =
    Sim.simulate ~config:(config ?adversary ?trace ())
      ~bits:(function Child -> 1 | Up a -> bits a)
      g (wrap conformance program)
  in
  (Array.map (fun s -> s.acc) states, stats)

let subtree_counts ?adversary ?conformance ?trace g ~parent =
  let msg_bits = Bits.int_bits (max 1 (Graph.n g)) + 1 in
  convergecast ?adversary ?conformance ?trace g ~parent
    ~value:(fun _ -> 1)
    ~add:( + )
    ~bits:(fun _ -> msg_bits)

(* ------------------------------------------------------------------ *)
(* Broadcast down a rooted forest.                                     *)
(* ------------------------------------------------------------------ *)

type bcast_state = { got : int; relayed : bool }

let broadcast ?adversary ?conformance ?trace g ~parent ~root ~value =
  if value < 0 then invalid_arg "Programs.broadcast: negative value";
  let msg_bits = Bits.int_bits (max 1 (Graph.n g + value)) in
  let program =
    {
      Sim.init =
        (fun ~node ~neighbors:_ ->
          { got = (if node = root then value else -1); relayed = false });
      round =
        (fun ~node ~state ~inbox ~out ->
          if parent.(node) = -1 then begin
            Sim.halt out;
            state
          end
          else
            let state =
              if state.got = -1 && not (Sim.Inbox.is_empty inbox) then
                (* the first delivery carries the value *)
                let v =
                  Sim.Inbox.fold
                    (fun acc _ v -> if acc = -1 then v else acc)
                    (-1) inbox
                in
                { state with got = v }
              else state
            in
            if state.got >= 0 && not state.relayed then begin
              (* a node's children are the neighbours naming it their
                 parent, served in descending id order *)
              let nbrs = Graph.neighbors g node in
              for i = Array.length nbrs - 1 downto 0 do
                let w = nbrs.(i) in
                if parent.(w) = node && w <> node then Sim.send out w state.got
              done;
              { state with relayed = true }
            end
            else begin
              if state.got >= 0 then Sim.halt out;
              state
            end);
    }
  in
  let states, stats =
    Sim.simulate ~config:(config ?adversary ?trace ())
      ~bits:(fun _ -> msg_bits)
      g (wrap conformance program)
  in
  (Array.map (fun s -> s.got) states, stats)
