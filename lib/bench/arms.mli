(** The benchmark arms [wl bench] runs and gates on.

    Workloads cover the solver, engine, validation and routing hot
    paths at sizes tuned so a full gated run takes seconds.  The size is
    embedded in each arm's name, so the [--quick] suite produces
    disjoint bench ids from the full one and the regression gate never
    compares across sizes. *)

type arm = {
  name : string;  (** bench id, e.g. ["thm1/color/n=400"] *)
  params : (string * int) list;  (** recorded in the trajectory point *)
  run : unit -> unit;  (** one operation — the timed unit *)
  baseline : (unit -> unit) option;  (** optional reference arm *)
  extras : unit -> (string * float) list;
      (** derived figures read after the runs (e.g. the engine session's
          warm-hit rate) *)
}

val suite : ?quick:bool -> unit -> arm list
(** The standard arms: Theorem 1 coloring, dense DSATUR (sequential and
    component-parallel with the sequential run as the baseline arm),
    conflict-graph construction, load computation, a warm engine
    add/query/remove cycle through the prebuilt-dipath hot entries, the
    Theorem 1 validation sweep ([sweep/thm1/seeds=...]:
    {!Wl_validate.Sweeps.run} over the default domain count, with the
    one-domain sweep as the baseline arm; a failing seed raises), the
    full routing stage ([route/n=...]: {!Wl_core.Routing.select} over a
    fixed uniform request set, with the seed/final/lower-bound loads as
    extras; [route-dense/n=...] the same on a dense [gnp_dag] with
    internal cycles, where Yen and the local search do real work) and
    its parse stage ([parse/n=...]:
    {!Wl_core.Serial.of_string} and {!Wl_core.Routing.requests_of_string}
    on the same network and requests as text).  [quick] (default false)
    switches to smaller instances under different bench names — for
    smoke tests and CI. *)

val with_handicap : ns:int -> string -> arm list -> arm list
(** Inject a busy-wait of [ns] nanoseconds after every run of the named
    arm — a synthetic regression for exercising the gate end-to-end.
    @raise Invalid_argument when no arm has that name. *)

val with_alloc_handicap : words:int -> string -> arm list -> arm list
(** Inject a synthetic allocation of [words] minor words after every run
    of the named arm — an allocation regression for exercising the
    [gc.minor_w] gate end-to-end without touching the arm's timing
    meaningfully.
    @raise Invalid_argument when no arm has that name. *)
