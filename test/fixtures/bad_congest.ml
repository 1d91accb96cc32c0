(* Deliberately non-conforming CONGEST code: the lint test suite asserts
   that tools/lint flags every construct below. Never built — kept out of
   any dune stanza on purpose. *)

let rng_bits () = Random.bits ()

let seeded () =
  let module R = Random in
  R.int 7

let sneak (x : int) : float = Obj.magic x

let swallow f = try f () with _ -> 0

let same x y = x == y

let cheating_program g =
  {
    Congest.Sim.init = (fun ~node ~neighbors:_ -> node);
    round =
      (fun ~node ~state ~inbox:_ ~out ->
        print_endline "leaking state through stdout";
        Printf.printf "node %d\n" node;
        ignore g;
        Congest.Sim.halt out;
        state);
  }
