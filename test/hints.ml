(* [drop_hints] runs a program through a wrapper that drops its wake
   hints: the inner program gets a private outbox carrying the true
   round, its sends and halt vote are forwarded, and its [Sim.idle] is
   not, so the simulator calls every node every round. A program whose
   hints are sound gives the same states, stats and trace bytes with
   and without it. *)

let drop_hints =
  {
    Congest.Conformance.instrument =
      (fun p ->
        let priv = Congest.Sim.Out.create () in
        {
          p with
          Congest.Sim.round =
            (fun ~node ~state ~inbox ~out ->
              Congest.Sim.Out.reset priv;
              Congest.Sim.Out.set_round priv (Congest.Sim.round out);
              let state = p.Congest.Sim.round ~node ~state ~inbox ~out:priv in
              for i = 0 to Congest.Sim.Out.length priv - 1 do
                Congest.Sim.send out
                  (Congest.Sim.Out.dst priv i)
                  (Congest.Sim.Out.msg priv i)
              done;
              if Congest.Sim.Out.halted priv then Congest.Sim.halt out;
              state);
        });
  }
