let weak_of_preset ?scratch preset : Transform.weak_carver =
  let scratch =
    Option.value scratch ~default:(Weakdiam.Weak_carving.scratch ())
  in
  fun ?cost g ~domain ~epsilon ->
    let r =
      Weakdiam.Weak_carving.carve_local ~preset ~scratch ?cost g ~domain
        ~epsilon
    in
    {
      Transform.clusters = r.members;
      roots = r.roots;
      depth = r.max_depth;
      congestion = r.congestion;
    }

let carve ?cost ?(preset = Weakdiam.Weak_carving.default_preset) ?scratch
    ?domain g ~epsilon =
  Congest.Span.with_span
    (Option.bind cost Congest.Cost.trace)
    "strong_carving"
    (fun () ->
      Transform.strong_carve ?cost
        ~weak:(weak_of_preset ?scratch preset)
        ?domain g ~epsilon)

let carve_improved ?cost ?(preset = Weakdiam.Weak_carving.default_preset)
    ?scratch ?domain g ~epsilon =
  let scratch =
    Option.value scratch ~default:(Weakdiam.Weak_carving.scratch ())
  in
  let strong ?cost g ~domain ~epsilon =
    fst (carve ?cost ~preset ~scratch ~domain g ~epsilon)
  in
  Congest.Span.with_span
    (Option.bind cost Congest.Cost.trace)
    "strong_carving_improved"
    (fun () -> Improve.improve ?cost ~strong ?domain g ~epsilon)

type carver =
  ?cost:Congest.Cost.t ->
  ?domain:Dsgraph.Mask.t ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  Cluster.Carving.t

let as_carver f : carver = fun ?cost ?domain g ~epsilon -> fst (f ?cost ?domain g ~epsilon)
