(** Validated directed acyclic graphs.

    A [Dag.t] wraps a {!Wl_digraph.Digraph.t} together with a topological
    order, established once at construction; the wrapper is the precondition
    carrier for every algorithm in the paper (all of which assume a DAG). *)

open Wl_digraph

type t

val of_digraph : Digraph.t -> (t, string) result
(** Builds the flat adjacency ({!csr}) and takes the topological order
    from Kahn's algorithm over it: sources queued in ascending id order,
    successors released in arc-id order.  O(n + m).  Fails with a
    description (including a directed-cycle witness) when the graph is
    not acyclic. *)

val graph : t -> Digraph.t
(** The underlying digraph. Callers must not mutate it (adding arcs would
    invalidate the cached topological order). *)

val n_vertices : t -> int
val n_arcs : t -> int

val topological_order : t -> Digraph.vertex array
(** Fresh copy of the topological order (sources first). *)

val topo_position : t -> Digraph.vertex -> int
(** Position of a vertex in the cached topological order. *)

val compare_topo : t -> Digraph.vertex -> Digraph.vertex -> int
(** Order vertices by topological position. *)

val sources : t -> Digraph.vertex list
(** Vertices of in-degree 0, in topological order. *)

val sinks : t -> Digraph.vertex list
(** Vertices of out-degree 0, in topological order. *)

val longest_path_length : t -> int
(** Number of arcs on a longest dipath (0 for an arc-less graph). *)

val count_dipaths_from : t -> Digraph.vertex -> Wl_util.Saturating.t array
(** [count_dipaths_from d v] counts, for every vertex [w], the dipaths from
    [v] to [w] ([1] for [w = v]); counts saturate rather than overflow. *)

val count_dipaths : t -> Digraph.vertex -> Digraph.vertex -> Wl_util.Saturating.t
(** Number of distinct dipaths between two vertices. *)

val some_dipath : t -> Digraph.vertex -> Digraph.vertex -> Dipath.t option
(** Any dipath from [src] to [dst] with at least one arc ([None] when
    unreachable or [src = dst]). *)

val all_dipaths_between :
  ?limit:int -> t -> Digraph.vertex -> Digraph.vertex -> Dipath.t list
(** Enumerate the dipaths from [src] to [dst] (at most [limit] of them,
    default 64) in lexicographic successor order. *)

(** {1 Flat adjacency}

    The kernels that sweep a DAG in topological order (the routing
    stage) read adjacency from flat int tables rather than
    [Digraph.out_arcs]'s freshly built lists. *)

type csr = private {
  out_off : Wl_util.Flat.t;
      (** length [n + 1]: the out-arcs of [v] are the slots
          [out_off.(v) .. out_off.(v + 1) - 1] *)
  out_dst : Wl_util.Flat.t;  (** head of each out slot *)
  out_arc : Wl_util.Flat.t;  (** arc id of each out slot *)
  in_off : Wl_util.Flat.t;  (** length [n + 1], as [out_off] for in-arcs *)
  in_src : Wl_util.Flat.t;  (** tail of each in slot *)
  in_arc : Wl_util.Flat.t;  (** arc id of each in slot *)
  order : Wl_util.Flat.t;  (** the topological order, sources first *)
  pos : Wl_util.Flat.t;  (** [pos.(v)]: position of [v] in [order] *)
}
(** Compressed sparse rows of both adjacency directions.  Within a
    vertex's slice, slots follow [Digraph] insertion order (ascending arc
    id), the order of {!Wl_digraph.Digraph.out_arcs} and
    {!Wl_digraph.Digraph.in_arcs}. *)

val csr : t -> csr
(** Built with the dag by {!of_digraph}, whose topological sort runs over
    these rows; callers must not write to the tables. *)

val arcs_by_tail_topo : t -> Digraph.arc array
(** All arc ids sorted by topological position of their tail (ties broken by
    arc id).  Scanning this array in reverse and inserting arcs one by one
    maintains the invariant of the Theorem 1 proof: the next arc to insert
    always leaves a source of the current partial graph. *)
