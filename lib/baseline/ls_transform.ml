let carve rng =
  let weak = Linial_saks.weak_carver rng
  and scratch = Strongdecomp.Transform.scratch () in
  fun ?cost g ~domain ~epsilon ->
    Strongdecomp.Transform.strong_carve_local ?cost ~weak ~scratch g ~domain
      ~epsilon

let decompose ?cost rng g =
  let carve = carve rng in
  Strongdecomp.Netdecomp.of_carver ?cost
    (fun ?cost g ~domain ~epsilon -> fst (carve ?cost g ~domain ~epsilon))
    g
