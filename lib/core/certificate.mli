(** Independent verification of solver reports.

    Re-derives every claim in a {!Solver.report} from scratch — validity of
    the assignment, the load, the lower bound's soundness, the dispatch
    method's applicability conditions, and the per-method guarantees
    (Theorem 1 optimality, the Theorem 6 bounds).  Used by the CLI and the
    integration tests as a second, algorithm-free line of defense: the
    checker shares no code path with the algorithms it audits beyond the
    graph structures themselves. *)

type issue = string
(** Human-readable description of a failed check. *)

val audit : Instance.t -> Solver.report -> issue list
(** Empty iff the report withstands every check. *)

