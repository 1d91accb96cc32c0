let carve ?cost rng ?domain g ~epsilon =
  Strongdecomp.Transform.strong_carve ?cost
    ~weak:(Linial_saks.weak_carver rng)
    ?domain g ~epsilon

let decompose ?cost rng g =
  let carver ?cost ?domain g ~epsilon =
    fst (carve ?cost rng ?domain g ~epsilon)
  in
  Strongdecomp.Netdecomp.(of_carver ?cost (of_mask_carver carver) g)
