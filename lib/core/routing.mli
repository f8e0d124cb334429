(** From requests to dipaths (the "R" of RWA).

    The paper studies wavelength assignment for a {e given} routing; this
    module supplies the routing stage that chooses one.  The full pipeline
    ({!select}) is k-shortest dipath enumeration per request (Yen's
    algorithm over the DAG, deterministic tie-breaking), a greedy seed by
    lexicographic bottleneck labels ({!bottleneck_path}), then local
    search swapping single requests across their [k] alternatives until the
    maximum arc load stops improving.  The chosen family feeds
    {!Solver.solve} / the engine directly, and {!lower_bound} gives the
    routing-aware (global-packing-number style) floor
    [lower_bound <= load of any routing <= w].

    Simpler routers (unique dipath on UPP-DAGs, hop-count shortest, greedy
    online min-load) and the classic request families (all-to-all,
    multicast, random) remain for examples and benches.

    Every fallible entry point reports a structured {!Error.t}: an
    unroutable request is [Invalid_path], a request naming a vertex outside
    the graph is [Bad_index], request-file syntax errors are [Parse]. *)

open Wl_digraph

type request = Digraph.vertex * Digraph.vertex

val collect_routes :
  (int -> request -> Dipath.t option) ->
  request list ->
  (Dipath.t list, Error.t) result
(** Route every request with the given per-request router (the [int] is the
    request's position).  The first unroutable request aborts with
    [Error (Invalid_path _)] naming the position and endpoints — the
    structured error the CLI maps to its exit code. *)

val shortest_dipath :
  Wl_dag.Dag.t -> Digraph.vertex -> Digraph.vertex -> Dipath.t option
(** The hop-count-shortest dipath from [src] to [dst]; among the shortest,
    the lexicographically smallest vertex sequence (so the result is a
    deterministic function of the graph, not of adjacency-list order).
    [None] when [dst] is unreachable or [src = dst]. *)

val route_unique :
  Wl_dag.Dag.t -> request list -> (Dipath.t list, Error.t) result
(** Routes every request along the unique dipath (UPP-DAGs; on non-UPP DAGs
    an arbitrary dipath is taken).  Fails on an unroutable request. *)

val route_shortest :
  Wl_dag.Dag.t -> request list -> (Dipath.t list, Error.t) result
(** {!shortest_dipath} per request: hop-count-shortest, deterministic. *)

val route_min_load :
  Wl_dag.Dag.t -> request list -> (Dipath.t list, Error.t) result
(** Greedy load-aware routing: requests are routed one by one along a path
    minimizing (in lexicographic order) the maximum arc load after routing,
    then hop count — the online heuristic; {!select} is the offline
    pipeline that additionally searches over alternatives. *)

val min_load_router :
  Wl_dag.Dag.t -> request -> (Dipath.t, Error.t) result
(** A stateful online router: each call routes one request on a path
    minimizing (bottleneck load after routing, hop count) given {e all
    previously routed requests}, and charges the chosen path's arcs.
    [route_min_load] is this router folded over a request list. *)

(** {1 The routing stage: enumerate, seed, search} *)

val bottleneck_path :
  Wl_dag.Dag.t ->
  int array ->
  Digraph.vertex ->
  Digraph.vertex ->
  Dipath.t option
(** [bottleneck_path d load src dst]: a dipath whose bottleneck — the
    maximum of [load.(a)] over its arcs — is minimum over all [src]-[dst]
    dipaths.  Vertices carry (bottleneck, hops) labels, computed by one
    dynamic-programming sweep in topological order over the positions
    between [src] and [dst]:
    [label(w) = min over in-arcs (u, a) of (max bott(u) load.(a), hops(u) + 1)].
    These are exactly the labels a label-setting Dijkstra on (bottleneck,
    hops) settles, and the route is the one it records: rebuilt backwards
    from [dst], each vertex's parent is the in-neighbour attaining its
    label that is smallest by (label, vertex id).  The hop component only
    breaks ties between labels (one label per vertex cannot certify
    hop-minimality among min-bottleneck paths); the bottleneck value
    itself is exact.  The sweep visits only the vertices [src] reaches
    within that range, through a frontier of one bit per position:
    O(range / 62 + those vertices + their out-arcs).  [load] is indexed
    by arc id and is not modified.  [None] when [dst] is unreachable or
    [src = dst].  This is the greedy seeding rule of {!select}. *)

val compare_route : Dipath.t -> Dipath.t -> int
(** The total order of the enumeration: hop count, ties by lexicographic
    vertex sequence. *)

val k_shortest :
  ?k:int -> Wl_dag.Dag.t -> Digraph.vertex -> Digraph.vertex -> Dipath.t list
(** [k_shortest ~k d src dst]: up to [k] (default 8) distinct dipaths from
    [src] to [dst], sorted by {!compare_route} — Yen's algorithm with the
    lexicographically-smallest shortest path as the spur routine, so the
    output is a deterministic function of the graph.  Duplicate-free, and
    complete (every dipath appears) when [k] is at least the number of
    [src]-[dst] dipaths.  [[]] when unreachable or [src = dst].  [k] must
    be at least 1: [k <= 0] asks for no route and returns [[]] ({!select}
    rejects it with [Precondition]). *)

val lower_bound : Wl_dag.Dag.t -> request list -> int
(** A routing-aware lower bound on the maximum arc load of {e any} routing
    of the requests (hence, via [pi <= w], on the wavelength count of any
    RWA solution) — the computable side of the global packing number of
    Lo–Zhang–Wong–Fu: the maximum of

    {ul
    {- the volume bound [ceil (sum of shortest-path hops / number of
       arcs)], and}
    {- the forced-arc bound: the largest number of requests all of whose
       dipaths traverse one common arc (detected by saturating path
       counting; a saturated count conservatively reads as avoidable).}}

    Computed per request by two sweeps over the vertices [x] reaches
    before [y] in topological order: a forward sweep from [x] (dipath
    counts [f(x, .)] and hop distances), driven by a frontier of one bit
    per position so that it costs O(range / 62 + reached vertices + their
    arcs), and a reverse sweep over the same vertices (counts [g(., y)],
    and the arcs with [f(x, u) * g(v, y) = f(x, y)], which are forced).
    The tables are allocated once per call and reused across requests, so
    the allocation does not grow with the number of requests.

    Unroutable requests contribute nothing (the bound stays valid for the
    routable sub-multiset). *)

type selection = {
  requests : request array;  (** in input order *)
  routes : Dipath.t array;  (** the chosen dipath per request *)
  k : int;  (** alternatives requested per request *)
  n_alternatives : int;  (** total routes enumerated, seeds included *)
  seed_load : int;  (** max arc load of the greedy seed *)
  max_load : int;  (** after local search; [<= seed_load] always *)
  lower_bound : int;  (** {!lower_bound} of the request multiset *)
  swaps : int;  (** improving swaps the local search applied *)
  rounds : int;  (** full sweeps until the objective stopped improving *)
}
(** The result of the full routing stage.  The chosen family achieves
    [max_load]; [lower_bound <= max_load] bounds how far from
    routing-optimal it can be, and [pi = max_load] for the instance built
    from it. *)

val select :
  ?k:int ->
  ?max_rounds:int ->
  Wl_dag.Dag.t ->
  request list ->
  (selection, Error.t) result
(** The full routing stage, in four phases:
    {ol
    {- the {!lower_bound}, whose forward sweeps also count each request's
       dipaths;}
    {- enumerate [k] alternatives per request ({!k_shortest}), except for
       a request with exactly one dipath, which has nothing to enumerate;}
    {- seed greedily with {!bottleneck_path}: the seed route joins the
       request's alternative set when Yen's cutoff missed it, and is the
       whole set of a one-dipath request, exactly as Yen would have
       returned it;}
    {- local search: sweep the requests, re-routing single requests onto
       an alternative whenever that strictly lowers (max arc load, number
       of arcs attaining it); stop after a sweep with no improvement or
       [max_rounds] (default 64) sweeps.}}
    Strict descent guarantees [max_load <= seed_load].  Deterministic, and
    the selection is the one Yen-for-every-request would make, field for
    field.  Errors: [Precondition] for
    [k <= 0], [Bad_index] for a request vertex outside the graph,
    [Invalid_path] for an unroutable request (including [x = y]). *)

val instance_of_selection : Wl_dag.Dag.t -> selection -> Instance.t
(** Wrap the chosen family, in request order, as an instance (the input to
    {!Solver.solve}). *)

(** {1 Request files}

    A line-oriented text format in the spirit of the instance format
    ([lib/core/serial.mli]); [#] starts a comment, blank lines are ignored:

    {v
    wlreq 1              # optional version header
    req 0 5
    req 2 7
    v} *)

val requests_to_string : request list -> string

val requests_of_string : string -> (request list, Error.t) result
(** Errors: [Parse] with the 1-based line number,
    [Unsupported_version] for a [wlreq N] header beyond 1. *)

val read_requests_file : string -> (request list, Error.t) result
(** I/O failures surface as [Io]. *)

(** {1 Request families} *)

val all_to_all : Wl_dag.Dag.t -> request list
(** Every ordered pair admitting a dipath. *)

val multicast : Wl_dag.Dag.t -> Digraph.vertex -> request list
(** From one source to every vertex reachable from it. *)

val route_multicast_tree : Wl_dag.Dag.t -> Digraph.vertex -> Dipath.t list
(** Routes the full multicast from a source along a BFS tree: all routes
    then live on a rooted tree, which has no internal cycle, so Theorem 1
    colors them with exactly the load — realizing (by routing choice) the
    multicast equality [w = pi] the paper cites from
    Beauquier–Hell–Pérennes.  Returns one dipath per reachable vertex
    (empty when nothing is reachable). *)

val random_requests : Wl_util.Prng.t -> Wl_dag.Dag.t -> int -> request list
(** [random_requests rng d k] draws [k] uniformly random routable ordered
    pairs (with repetition).  Returns fewer when the DAG has no routable
    pair at all. *)

val instance_of :
  Wl_dag.Dag.t ->
  (Wl_dag.Dag.t -> request list -> (Dipath.t list, Error.t) result) ->
  request list ->
  (Instance.t, Error.t) result
(** Routes and wraps into an instance. *)
