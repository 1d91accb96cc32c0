let carve rng : Cluster.Carving.carver =
  let weak = Linial_saks.weak_carver rng
  and scratch = Strongdecomp.Transform.scratch () in
  fun ?cost g ~domain ~epsilon ->
    fst
      (Strongdecomp.Transform.strong_carve ?cost ~weak ~scratch g ~domain
         ~epsilon)

let decompose ?cost rng g = Strongdecomp.Netdecomp.of_carver ?cost (carve rng) g
