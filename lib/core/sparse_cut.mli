(** Lemma 3.1: balanced sparse cut, or large small-diameter component.

    Given a connected [D]-diameter graph and [0 < ε < 1], in [O(D log n)]
    CONGEST rounds return either
    - a {e balanced sparse cut}: non-adjacent [V1, V2] with
      [|V1|, |V2| >= n/3] and [O(ε n / log n)] removed nodes, or
    - a {e large small-diameter component}: [U] with [|U| >= n/3], induced
      diameter [O(log^2 n / ε)], and only [O(ε n / log n)] nodes of
      [V \ U] adjacent to [U].

    The algorithm halves a pivot set [S] (initially everything) for
    [O(log n)] iterations. With [B_k(S)] the radius-[k] neighborhood of
    [S], let [a] (resp. [b]) be the smallest radius with [|B_k| >= n/3]
    (resp. [>= 2n/3]). A wide [\[a, b\]] window must contain a weak layer —
    that layer is a balanced sparse cut. A narrow window lets us replace
    [S] by whichever half keeps [a] small ([min(a1, a2) <= b]). Once [S]
    is a single node, the ball [B_{r*}(v)] at the weakest layer past [a]
    is the large component. *)

type outcome =
  | Cut of { v1 : int array; v2 : int array; removed : int array }
      (** [v1] and [v2] are non-adjacent; [removed] is the separating
          layer (dead nodes). The three sets, each ascending, partition
          the domain. *)
  | Component of { u : int array; boundary : int array }
      (** [u] induces a small-diameter subgraph; [boundary] is the set of
          outside nodes adjacent to [u] (to be killed by callers that need
          separation). [u], [boundary] (each ascending) and the untouched
          rest partition the domain. *)

type scratch = Dsgraph.Stamp.t

val scratch : unit -> scratch
(** An empty scratch; the first call sizes it. One serves any number of
    calls, one at a time. *)

val run :
  ?cost:Congest.Cost.t ->
  ?epsilon:float ->
  scratch ->
  Dsgraph.Graph.t ->
  domain:int array ->
  outcome
(** [run s g ~domain] on a {e connected} [G\[domain\]], [domain] being
    strictly ascending node ids ([ε] defaults to [1/2]). Cost charging:
    each iteration's BFS waves charge their actual depth; the half-split
    charges one BFS plus a broadcast. Work: each BFS wave costs the
    domain's volume; nothing is [O(n)] with a warm scratch.
    @raise Invalid_argument if the domain is empty, not ascending ids
    of [g]'s nodes ({!Cluster.Carving.check_domain}) or disconnected. *)

val window : n:int -> epsilon:float -> int
(** The search-window length [K = O(log n / ε)]: scanning [K] consecutive
    layers starting at a set of size [>= n/3] must find a layer with
    growth ratio below [1 + δ], [δ = ε / ln n]. *)
