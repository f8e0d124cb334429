(** Sharded engine sessions behind the [wlrpc/1] dispatch.

    Sessions are partitioned over [shards] shards by a stable hash of the
    tenant id; a shard runs one request or wave at a time, so per-tenant
    operations are processed in submission order without any per-session
    locking.

    In {e threaded} mode (the daemon) each shard has a bounded job queue
    and its waves are run by the callers themselves (flat combining):
    {!call} enqueues its job, and a caller that finds no wave running on
    the shard takes the whole queue as one {e wave} and runs it on its
    own thread; a caller that finds one running waits until a wave has
    answered it.  Whoever holds the shard's busy flag owns its session
    table.  A wave feeds its leading run of mutations — grouped per
    tenant, order preserved — through {!Wl_engine.Engine.submit_many},
    so concurrent tenants solve in parallel and a dirty streak costs one
    solve per tenant per wave.  Waves of different shards run on one
    domain one at a time (solver scratch is per domain).  The queue
    bound is the backpressure: {!call} blocks while [max_queue] jobs
    wait.  There are no worker domains: parallel engine work comes from
    callers on different domains (the daemon spreads its connections
    over one domain per shard, see [Server.serve]) and from
    [submit_many].

    In {e synchronous} mode (the in-process loopback client, the fuzz
    oracles) there is no queue: {!call} executes the request inline
    under the shard's lock.  Same dispatch code, deterministic stats —
    which is what makes a loopback client comparable op-for-op with a
    bare engine session. *)

module Engine = Wl_engine.Engine

type t

val create :
  ?threaded:bool ->
  ?flight_capacity:int ->
  shards:int ->
  max_queue:int ->
  unit ->
  t
(** [threaded] (queued waves run by the callers) defaults to [true];
    [flight_capacity] (default 256) bounds
    each session's flight-recorder ring so thousands of sessions stay
    cheap.  [shards] must be positive, [max_queue] at least 1.
    @raise Invalid_argument on a non-positive [shards] or [max_queue]. *)

val shards : t -> int

val shard_of_tenant : shards:int -> string -> int
(** The stable partition function (FNV-1a over the tenant bytes), exposed
    for tests and for operators reading per-shard metrics. *)

val call : ?ctx:Wl_obs.Ctx.t -> t -> Proto.req -> Proto.reply
(** Execute one request and wait for its reply.  Tenant-scoped requests
    run on the tenant's shard; [Hello]/[Ping]/[Shutdown] are answered
    inline ([Shutdown] replies [R_bye] — initiating the drain is the
    caller's job).  After {!drain} has begun, returns
    [Error (Precondition _)].  In threaded mode a wave that raises
    answers each of its jobs with [Error (Precondition _)] naming the
    exception, and the shard stays usable.

    [ctx] is the propagated trace context ({!Wl_obs.Ctx}, default
    [none]): when set and tracing is on, the shard emits
    [serve.queue_wait] / [serve.batch] / [serve.engine] spans under the
    caller's span, and engine-side HDR exemplars and flight records
    latch the trace id.

    The introspection requests — [Dstats], [Dhealth], [Trace_dump] —
    are answered inline on the calling thread from a roster mirror plus
    lock-free engine read-backs, so they never queue behind (or block)
    engine work.  [Dstats] rollups merge every session's live histogram
    via {!Wl_obs.Hdr.merge_into}: true daemon-wide quantiles. *)

val session_count : t -> int
(** Open sessions across all shards (approximate under concurrency). *)

val drain : t -> (string * Engine.session) list
(** Stop accepting, wait until every shard has run the jobs queued
    before the stop and no wave is running, and return every still-open
    session, sorted by tenant.  Calls arriving later get
    [Error (Precondition "server draining")], so the sessions are
    quiescent: callers can read {!Wl_engine.Engine.health} or dump flight
    recorders without racing a wave.  There are no workers to join.
    Idempotent; later calls return the same listing. *)
