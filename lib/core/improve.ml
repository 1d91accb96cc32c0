type stats = {
  levels : int;
  carver_invocations : int;
  lemma_invocations : int;
  cuts_taken : int;
  components_taken : int;
}

let improve ~(strong : Cluster.Carving.carver) =
  let cut = Sparse_cut.scratch () in
  fun ?cost g ~domain ~epsilon ->
    if epsilon <= 0.0 || epsilon >= 1.0 then
      invalid_arg "Improve.improve: epsilon must be in (0, 1)";
    Cluster.Carving.check_domain "Improve.improve" g domain;
    let n = max (Array.length domain) 2 in
    (* A runs with Θ(ε/log n); Lemma 3.1 has its own 1/log n factor
       inside, so it receives ε/4 (its per-call boundary is
       O(ε n / log n)). *)
    let eps_a = epsilon /. (4.0 *. float_of_int (Congest.Bits.id_bits ~n)) in
    let eps_lemma = epsilon /. 4.0 in
    let output = ref [] in
    let stats =
      ref
        {
          levels = 0;
          carver_invocations = 0;
          lemma_invocations = 0;
          cuts_taken = 0;
          components_taken = 0;
        }
    in
    let active = ref (if Array.length domain > 0 then [ domain ] else []) in
    let trace = Option.bind cost Congest.Cost.trace in
    Congest.Span.enter trace "improve";
    while !active <> [] do
      stats := { !stats with levels = !stats.levels + 1 };
      Congest.Span.enter_idx trace "level" !stats.levels;
      (* one carving invocation on the union of all active parts; parts
         are pairwise non-adjacent so each resulting cluster stays in one
         part *)
      let union = Array.concat !active in
      Array.sort Int.compare union;
      stats :=
        { !stats with carver_invocations = !stats.carver_invocations + 1 };
      let clusters =
        strong ?cost g ~domain:union ~epsilon:eps_a
        |> Array.to_list
        |> List.filter_map (fun c ->
               if c = [||] then None
               else
                 let c = Array.copy c in
                 Array.sort Int.compare c;
                 Some c)
        |> List.sort (fun a b -> Int.compare a.(0) b.(0))
      in
      let next_active = ref [] in
      let sub_meters = ref [] in
      List.iter
        (fun part ->
          let sub = Congest.Cost.create () in
          sub_meters := sub :: !sub_meters;
          stats :=
            { !stats with lemma_invocations = !stats.lemma_invocations + 1 };
          match
            Sparse_cut.run ~cost:sub ~epsilon:eps_lemma cut g ~domain:part
          with
          | Sparse_cut.Cut { v1; v2; removed = _ } ->
              stats := { !stats with cuts_taken = !stats.cuts_taken + 1 };
              if v1 <> [||] then next_active := v1 :: !next_active;
              if v2 <> [||] then next_active := v2 :: !next_active
          | Sparse_cut.Component { u; boundary } ->
              stats :=
                { !stats with components_taken = !stats.components_taken + 1 };
              output := u :: !output;
              let gone = Dsgraph.Stamp.stamp cut u in
              Array.iter (fun v -> cut.mark.(v) <- gone) boundary;
              let rest =
                Array.of_seq
                  (Seq.filter
                     (fun v -> cut.mark.(v) <> gone)
                     (Array.to_seq part))
              in
              if rest <> [||] then next_active := rest :: !next_active)
        clusters;
      (match cost with
      | None -> ()
      | Some c ->
          Congest.Cost.parallel c !sub_meters
            (Printf.sprintf "improve.level_%02d" !stats.levels));
      active := !next_active;
      Congest.Span.exit trace
    done;
    Congest.Span.exit trace;
    (Array.of_list (List.rev !output), !stats)
