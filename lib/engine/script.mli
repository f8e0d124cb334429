(** Engine op scripts: a serializable list of {!Engine.op} mutations.

    The [wl session] CLI subcommand replays these against a session; the
    text and JSON forms mirror each other, like {!Wl_core.Serial} does for
    instances.

    Text format (line-oriented, [#] comments, optional [wlops 1] header):

    {v
    wlops 1
    path 0 1 2       # Add_path
    remove 3         # Remove_path (by handle)
    arc 4 5          # Add_arc
    v}

    JSON mirror:

    {v
    { "format": "wl-ops", "version": 1,
      "ops": [ { "op": "add_path", "vertices": [0, 1, 2] },
               { "op": "remove_path", "id": 3 },
               { "op": "add_arc", "from": 4, "to": 5 } ] }
    v} *)

open Wl_core

type t = Engine.op list

val current_version : int

val to_string : t -> string
val of_string : string -> (t, Error.t) result

val to_json : ?pretty:bool -> t -> string
val of_json : string -> (t, Error.t) result

val to_jsonx : t -> Wl_json.Jsonx.t
(** The JSON mirror as a tree: {!to_json} prints exactly this. *)

val of_jsonx : Wl_json.Jsonx.t -> (t, Error.t) result
(** {!of_json} on an already parsed tree. *)

val read_file : string -> (t, Error.t) result
(** Reads either form, sniffing JSON by a leading ['{']. *)

val write_file : string -> t -> unit
