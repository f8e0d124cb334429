(** The [wld] daemon core: a socket front-end over a {!Shard.t}.

    One OS thread per accepted connection reads {!Wire} frames, decodes
    {!Proto} requests (text or JSON, answered in kind), and executes them
    through {!Shard.call}, which runs the shard's waves on these same
    threads.  Connections are therefore spread over one domain per
    shard: the accept loop runs on [Shard.shards] domains, and each loop
    creates its connection threads on its own domain.

    Shutdown is cooperative: {!request_stop} (safe from a signal handler
    and from connection threads — a client [shutdown] request triggers it
    after its [bye] reply) only marks a flag; {!wait} notices, closes the
    listener, drains the shards and returns every session's final
    {!Wl_engine.Engine.health} — the listing the daemon dumps before
    exiting 0. *)

open Wl_core
module Engine = Wl_engine.Engine

(** Listening endpoints; rendered/parsed as [unix:PATH] and
    [tcp:HOST:PORT] (a bare path starting with [/] or [.] counts as
    [unix:], a bare [HOST:PORT] as [tcp:]). *)
type address = Unix_sock of string | Tcp of string * int

val address_of_string : string -> (address, Error.t) result
val address_to_string : address -> string

type t

val serve : shard:Shard.t -> address -> (t, Error.t) result
(** Bind, listen and start accepting: on a background thread of the
    calling domain and on [Shard.shards shard - 1] spawned domains (none
    with one shard).  A unix socket path is unlinked first if present;
    TCP listeners set [SO_REUSEADDR].  [Error (Io _)] when the endpoint
    cannot be bound. *)

val address : t -> address

val request_stop : t -> unit
(** Ask the server to shut down; returns immediately.  Idempotent. *)

val stop_requested : t -> bool

val wait : t -> (string * Engine.session) list
(** Block until {!request_stop}, then perform the drain: wake every
    accept loop, drain the shards, shut down the connections still open,
    join the accept loops and their domains, close the listener, and
    return the quiesced per-tenant session listing (sorted by tenant)
    for health and flight dumps.  Requests arriving during the drain
    receive [Precondition] error frames. *)
