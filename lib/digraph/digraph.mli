(** Simple directed graphs (no self-loops, no parallel arcs).

    Vertices are dense integers [0 .. n_vertices - 1]; arcs get dense integer
    ids [0 .. n_arcs - 1] in insertion order.  The structure is append-only:
    algorithms that conceptually delete arcs (the Theorem 1 peeling, the
    generator repair loops) either work over arc orderings or rebuild a graph
    from filtered arc arrays ({!of_arcs}) — this keeps every id
    stable, which the dipath and load machinery depends on.

    Optional string labels support readable DOT output and the text format. *)

type t

type vertex = int
type arc = int

(** {1 Construction} *)

val create : unit -> t

val add_vertex : ?label:string -> t -> vertex
(** Appends a fresh vertex and returns its id. *)

val add_vertices : t -> int -> unit
(** [add_vertices g k] appends [k] unlabeled vertices. *)

val add_arc : t -> vertex -> vertex -> arc
(** [add_arc g u v] appends the arc [u -> v] and returns its id.

    Raises [Invalid_argument] if [u = v], if either endpoint is not a vertex,
    or if the arc already exists. *)

val of_arcs : ?labels:string array -> int -> src:vertex array -> dst:vertex array -> t
(** [of_arcs n ~src ~dst] builds a graph on [n] vertices whose arc [a] is
    [src.(a) -> dst.(a)]: the graph that [add_arc] calls in id order
    would build, in one pass.  The graph takes the two arrays over as its
    arc storage: the caller must not modify them afterwards.

    Raises [Invalid_argument] if [n < 0], if the arrays' lengths differ,
    if [labels] does not have [n] entries, or as [add_arc] would on the
    first offending arc. *)

val copy : t -> t

(** {1 Accessors} *)

val n_vertices : t -> int
val n_arcs : t -> int

val arc_src : t -> arc -> vertex
val arc_dst : t -> arc -> vertex
val arc_endpoints : t -> arc -> vertex * vertex

val arc_ends : t -> vertex array * vertex array
(** Fresh arrays [(src, dst)] with arc [a] = [src.(a) -> dst.(a)]: the
    arguments {!of_arcs} would rebuild the graph from. *)

val find_arc : t -> vertex -> vertex -> arc option
(** Arc id of [u -> v], if present. *)

val mem_arc : t -> vertex -> vertex -> bool

val out_degree : t -> vertex -> int
val in_degree : t -> vertex -> int

val out_arcs : t -> vertex -> arc list
(** Arcs leaving a vertex, in insertion order. *)

val in_arcs : t -> vertex -> arc list

val succ : t -> vertex -> vertex list
(** Out-neighbors, in insertion order. *)

val pred : t -> vertex -> vertex list

val arcs : t -> (vertex * vertex) list
(** All arcs [(src, dst)] in id order. *)

val vertices : t -> vertex list

(** {1 Labels} *)

val label : t -> vertex -> string
(** The vertex's label; defaults to ["v<i>"] when none was assigned. *)

val set_label : t -> vertex -> string -> unit

val vertex_of_label : t -> string -> vertex option
(** First vertex carrying the given explicit label. *)

(** {1 Iteration} *)

val iter_vertices : (vertex -> unit) -> t -> unit
val iter_arcs : (arc -> vertex -> vertex -> unit) -> t -> unit
val fold_arcs : (arc -> vertex -> vertex -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Derived graphs} *)

val reverse : t -> t
(** Graph with every arc flipped; arc ids are preserved (arc [i] of the
    result is the reverse of arc [i] of the argument). Labels carry over. *)

val induced_subgraph : t -> vertex list -> t * vertex array
(** [induced_subgraph g vs] keeps only the vertices in [vs] and the arcs
    between them.  Returns the new graph and the mapping from new vertex ids
    to original ids. *)

val equal_structure : t -> t -> bool
(** Same vertex count and same arc set (ignoring labels and arc ids). *)

val pp : Format.formatter -> t -> unit
