(** Length-prefixed framing for the [wlrpc/1] wire protocol.

    A frame is a 4-byte big-endian payload length followed by the payload
    bytes.  The length is bounded by {!max_frame} so a hostile or corrupt
    prefix can never make a reader allocate unboundedly: readers check the
    prefix {e before} allocating the payload buffer.

    Three reader surfaces share one length check:

    {ul
    {- {!read_frame} over a per-connection {!reader}, for blocking
       sockets (the daemon's connection threads and the remote client);}
    {- {!read}, one unbuffered frame at a time off a descriptor;}
    {- {!unframe} for in-memory byte strings (the in-process loopback
       transport and the frame-level fuzz oracle).}}

    Every malformed input — truncated prefix, truncated payload, oversized
    or zero length — is reported as [Error (Parse _)] (or [Io] for real
    socket failures); the decoder never raises and never blocks past the
    bytes it was given. *)

open Wl_core

val max_frame : int
(** Hard payload-size ceiling (16 MiB).  Frames beyond it are refused on
    both sides: writers raise [Invalid_argument], readers report a
    protocol error without allocating the payload. *)

(** {1 In-memory codec} *)

val frame : string -> string
(** Prefix a payload with its length.
    @raise Invalid_argument when the payload is empty or exceeds
    {!max_frame} — both are unrepresentable on the wire by design. *)

val unframe : string -> int -> (string * int, Error.t) result
(** [unframe buf off] decodes one frame starting at byte [off]: the
    payload and the offset just past it.  [Error (Parse _)] on a
    truncated prefix, a zero or oversized length, or a payload running
    past the end of [buf].  Total: never raises, for any input. *)

val unframe_all : string -> (string list, Error.t) result
(** Decode a whole buffer as consecutive frames. *)

(** {1 File-descriptor transport} *)

val write : Unix.file_descr -> string -> (unit, Error.t) result
(** Write one frame, handling short writes.  [Error (Io _)] on a closed
    or broken descriptor; raises [Invalid_argument] like {!frame} on an
    unrepresentable payload. *)

val read : Unix.file_descr -> (string option, Error.t) result
(** Read one frame with two reads, prefix then payload, and nothing past
    it.  [Ok None] on a clean EOF at a frame boundary; [Error (Parse _)]
    on EOF mid-frame or a zero or oversized length prefix; [Error (Io _)]
    on a socket error.  [EINTR] is retried. *)

(** {1 Buffered reader}

    Each read syscall is a blocking section that gives up and then takes
    back the domain's runtime lock, and a served op is a few microseconds
    of engine work, so the reads set the cost of a small frame.  A
    {!reader} makes one read per small frame instead of {!read}'s two:
    one read fills its buffer, every frame already whole in it is sliced
    out with no further syscall, and the bytes past a frame wait there for
    the next call, so pipelined frames are never lost. *)

val buffer_size : int
(** The reader's buffer, 64 KiB: the most OCaml's [Unix.read] moves in
    one call.  It is allocated once per reader and never grows. *)

type reader
(** A descriptor and its buffer.  Not thread-safe: one reader per
    connection, used by one thread at a time. *)

val reader : Unix.file_descr -> reader
(** A reader on a blocking descriptor.  Read the descriptor only through
    it from then on: bytes it has buffered are invisible to the fd. *)

val read_frame : reader -> (string option, Error.t) result
(** The next frame, with the errors of {!read}: [Ok None] only on EOF at
    a frame boundary, [Parse] on a truncated prefix or payload or on a
    zero or oversized length, [Io] on a socket error.  The length is
    checked before any payload is read into or allocated, so a frame
    longer than {!buffer_size} costs its own payload and nothing more:
    the buffered bytes are copied out and the rest is read straight into
    it.  After an error the reader's position is lost; drop the
    connection. *)
