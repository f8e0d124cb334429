(** Minimal JSON values, parser and printer (no external dependencies).

    Backs the machine-readable mirrors of the text formats: instance files
    ({!Wl_core.Serial}) and engine op scripts ({!Wl_engine.Script}).  The
    parser is strict RFC-8259 apart from two deliberate simplifications:
    numbers without [.], [e] or [E] parse as [Int] (everything else as
    [Float]), and [\uXXXX] escapes are encoded to UTF-8 code-point by
    code-point (surrogate pairs are not merged). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Error messages carry the (1-based) line of the offending byte.  Arrays
    and objects nested more than 512 deep are an error, so parse time
    stays linear in the input. *)

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents objects and arrays by two
    spaces.  A [Float] prints as the shortest of 15, 16 or 17 significant
    digits that reads back exactly (integral values as [%.1f]). *)

(** {1 Accessors} — all total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]. *)

val to_int : t -> int option
val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
