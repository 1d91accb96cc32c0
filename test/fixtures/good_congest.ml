(* Conforming counterpart of bad_congest.ml: the lint tests assert this
   yields zero findings. Never built. *)

let rng_bits rng = Dsgraph.Rng.bits rng

let guarded f = try f () with Invalid_argument _ -> 0

let same x y = x = y

let honest_program g =
  {
    Congest.Sim.init = (fun ~node ~neighbors:_ -> node);
    round =
      (fun ~node ~state ~inbox:_ ~out ->
        ignore g;
        ignore node;
        Congest.Sim.halt out;
        state);
  }
