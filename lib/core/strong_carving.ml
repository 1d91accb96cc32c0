let weak_of_preset preset : Transform.weak_carver =
  let scratch = Weakdiam.Weak_carving.scratch () in
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

let carve ?(preset = Weakdiam.Weak_carving.default_preset) () :
    Cluster.Carving.carver =
  let weak = weak_of_preset preset and scratch = Transform.scratch () in
  fun ?cost g ~domain ~epsilon ->
    Congest.Span.with_span
      (Option.bind cost Congest.Cost.trace)
      "strong_carving"
      (fun () ->
        fst (Transform.strong_carve ?cost ~weak ~scratch g ~domain ~epsilon))

let carve_improved ?preset () : Cluster.Carving.carver =
  let improve = Improve.improve ~strong:(carve ?preset ()) in
  fun ?cost g ~domain ~epsilon ->
    Congest.Span.with_span
      (Option.bind cost Congest.Cost.trace)
      "strong_carving_improved"
      (fun () -> fst (improve ?cost g ~domain ~epsilon))
