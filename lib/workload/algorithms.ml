open Dsgraph

type kind = Weak | Strong
type model = Deterministic | Randomized

type 'run t = {
  name : string;
  reference : string;
  kind : kind;
  model : model;
  run : 'run;
}

type decompose_run =
  cost:Congest.Cost.t -> seed:int -> Dsgraph.Graph.t -> Cluster.Decomposition.t

type carve_run =
  cost:Congest.Cost.t ->
  seed:int ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  Cluster.Carving.t

type decomposer = decompose_run t
type carver = carve_run t

let decomposers =
  [
    {
      name = "ls93";
      reference = "[LS93] weak randomized";
      kind = Weak;
      model = Randomized;
      run =
        (fun ~cost ~seed g ->
          Baseline.Linial_saks.decompose ~cost (Rng.create seed) g);
    };
    {
      name = "rg20";
      reference = "[RG20] weak deterministic";
      kind = Weak;
      model = Deterministic;
      run =
        (fun ~cost ~seed:_ g ->
          Strongdecomp.Netdecomp.weak ~cost ~preset:Weakdiam.Weak_carving.Rg20 g);
    };
    {
      name = "ggr21";
      reference = "[GGR21] weak deterministic";
      kind = Weak;
      model = Deterministic;
      run =
        (fun ~cost ~seed:_ g ->
          Strongdecomp.Netdecomp.weak ~cost ~preset:Weakdiam.Weak_carving.Ggr21
            g);
    };
    {
      name = "mpx";
      reference = "[MPX13,EN16] strong randomized";
      kind = Strong;
      model = Randomized;
      run = (fun ~cost ~seed g -> Baseline.Mpx.decompose ~cost (Rng.create seed) g);
    };
    {
      name = "aglp89";
      reference = "[AGLP89] strong deterministic (quality profile)";
      kind = Strong;
      model = Deterministic;
      run =
        (fun ~cost ~seed:_ g ->
          Baseline.Greedy.decompose ~cost ~preset:Baseline.Greedy.Aglp g);
    };
    {
      name = "gha19";
      reference = "[Gha19,PS92] strong deterministic (quality profile)";
      kind = Strong;
      model = Deterministic;
      run =
        (fun ~cost ~seed:_ g ->
          Baseline.Greedy.decompose ~cost ~preset:Baseline.Greedy.Gha19 g);
    };
    {
      name = "greedy";
      reference = "[LS93] existential optimum (sequential)";
      kind = Strong;
      model = Deterministic;
      run =
        (fun ~cost ~seed:_ g ->
          Baseline.Greedy.decompose ~cost ~preset:Baseline.Greedy.Ls93_existential
            g);
    };
    {
      name = "abcp96";
      reference = "[ABCP96] strong deterministic, unbounded messages";
      kind = Strong;
      model = Deterministic;
      run = (fun ~cost ~seed:_ g -> fst (Baseline.Abcp.decompose ~cost g));
    };
    {
      name = "thm2.1+ls";
      reference = "THIS PAPER Thm 2.1 over randomized [LS93] (new combination)";
      kind = Strong;
      model = Randomized;
      run =
        (fun ~cost ~seed g ->
          Baseline.Ls_transform.decompose ~cost (Rng.create seed) g);
    };
    {
      name = "thm2.3";
      reference = "THIS PAPER Thm 2.3: strong det, O(log n) colors";
      kind = Strong;
      model = Deterministic;
      run = (fun ~cost ~seed:_ g -> Strongdecomp.Netdecomp.strong ~cost g);
    };
    {
      name = "thm3.4";
      reference = "THIS PAPER Thm 3.4: strong det, improved diameter";
      kind = Strong;
      model = Deterministic;
      run = (fun ~cost ~seed:_ g -> Strongdecomp.Netdecomp.strong_improved ~cost g);
    };
  ]

let carvers =
  [
    {
      name = "ls93";
      reference = "[LS93] weak randomized";
      kind = Weak;
      model = Randomized;
      run =
        (fun ~cost ~seed g ~epsilon ->
          Cluster.Carving.of_carver ~cost
            (Baseline.Linial_saks.carve (Rng.create seed))
            g ~epsilon);
    };
    {
      name = "rg20";
      reference = "[RG20] weak deterministic";
      kind = Weak;
      model = Deterministic;
      run =
        (fun ~cost ~seed:_ g ~epsilon ->
          let r =
            Weakdiam.Weak_carving.carve ~preset:Weakdiam.Weak_carving.Rg20 ~cost
              g ~epsilon
          in
          r.carving);
    };
    {
      name = "ggr21";
      reference = "[GGR21] weak deterministic";
      kind = Weak;
      model = Deterministic;
      run =
        (fun ~cost ~seed:_ g ~epsilon ->
          let r =
            Weakdiam.Weak_carving.carve ~preset:Weakdiam.Weak_carving.Ggr21
              ~cost g ~epsilon
          in
          r.carving);
    };
    {
      name = "mpx";
      reference = "[MPX13,EN16] strong randomized";
      kind = Strong;
      model = Randomized;
      run =
        (fun ~cost ~seed g ~epsilon ->
          Cluster.Carving.of_carver ~cost
            (Baseline.Mpx.carve (Rng.create seed))
            g ~epsilon);
    };
    {
      name = "thm2.1+ls";
      reference = "THIS PAPER Thm 2.1 over randomized [LS93]";
      kind = Strong;
      model = Randomized;
      run =
        (fun ~cost ~seed g ~epsilon ->
          Cluster.Carving.of_carver ~cost
            (Baseline.Ls_transform.carve (Rng.create seed))
            g ~epsilon);
    };
    {
      name = "thm2.2";
      reference = "THIS PAPER Thm 2.2: strong deterministic";
      kind = Strong;
      model = Deterministic;
      run =
        (fun ~cost ~seed:_ g ~epsilon ->
          Cluster.Carving.of_carver ~cost
            (Strongdecomp.Strong_carving.carve ())
            g ~epsilon);
    };
    {
      name = "thm3.3";
      reference = "THIS PAPER Thm 3.3: strong det, improved diameter";
      kind = Strong;
      model = Deterministic;
      run =
        (fun ~cost ~seed:_ g ~epsilon ->
          Cluster.Carving.of_carver ~cost
            (Strongdecomp.Strong_carving.carve_improved ())
            g ~epsilon);
    };
  ]

let find_decomposer name =
  List.find (fun (d : decomposer) -> d.name = name) decomposers
let find_carver name = List.find (fun c -> c.name = name) carvers
