(** RWA instances: a DAG together with a family of dipaths.

    This is the input of the wavelength-assignment problem the paper studies
    once routing is fixed: color the dipaths so that two dipaths sharing an
    arc get different colors, using as few colors as possible.

    The family is an {e indexed multiset}: the same dipath may appear several
    times (Theorems 6 and 7 replicate dipaths on purpose), and colors are
    reported per index. *)

open Wl_digraph

type t

val make : Wl_dag.Dag.t -> Dipath.t list -> t
(** Validates nothing beyond what {!Dipath.make} already guaranteed (each
    dipath was built against the same graph); callers must not pass dipaths
    from a different graph. *)

val of_array : Wl_dag.Dag.t -> Dipath.t array -> t
(** Like {!make} from an array (copied). *)

val of_digraph : Digraph.t -> Dipath.t list -> (t, Error.t) result
(** Checks acyclicity first; [Error (Cyclic _)] on a directed cycle. *)

val of_vertex_seqs :
  Digraph.t -> Digraph.vertex list list -> (t, Error.t) result
(** Full result-typed construction from raw vertex sequences: checks
    acyclicity ([Cyclic]) and validates every dipath ([Invalid_path]).
    The entry point the {!Serial} parsers and the engine build on. *)

val dag : t -> Wl_dag.Dag.t
val graph : t -> Digraph.t

val n_paths : t -> int
val path : t -> int -> Dipath.t
(** Path by family index, [0 .. n_paths - 1]. *)

val paths : t -> Dipath.t array
(** Fresh array of the family, in index order. *)

val paths_list : t -> Dipath.t list

val add_paths : t -> Dipath.t list -> t
(** New instance with extra dipaths appended (indices of existing paths are
    preserved). *)

val paths_through : t -> Digraph.arc -> int list
(** Indices of family members whose dipath uses the given arc, ascending.
    Allocates; the iteration forms below are the allocation-free interface
    the solvers use. *)

val n_paths_through : t -> Digraph.arc -> int
(** Number of family members through the arc (the arc's load), O(1). *)

val max_arc_load : t -> int
(** [max over arcs of n_paths_through] — the load [pi] — in one
    allocation-free pass that reads each CSR offset exactly once.
    [Load.pi] is this. *)

val paths_through_iter : t -> Digraph.arc -> (int -> unit) -> unit
(** Iterate the family indices through the arc, ascending, without
    allocating. *)

val paths_through_fold : t -> Digraph.arc -> ('a -> int -> 'a) -> 'a -> 'a

val csr_index : t -> Wl_util.Flat.t * Wl_util.Flat.t
(** The underlying CSR index [(off, ids)]: the members through arc [a] are
    [ids.(off.(a)) .. ids.(off.(a+1) - 1)], ascending.  Both tables are
    Bigarray-backed ({!Wl_util.Flat.t}) so they live off the OCaml heap.
    Exposed for flat-core consumers (conflict-graph construction,
    Theorem 1 occupancy); callers must not mutate either array. *)

val pp : Format.formatter -> t -> unit
