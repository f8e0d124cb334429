(** One-pass tokenizer for the line-oriented text formats: {!Serial}'s
    instance files and {!Routing}'s request files.

    Lines end at ['\n'] and are numbered from 1.  A line's content is the
    text before its first ['#'], with [String.trim]'s whitespace (space,
    tab, CR, LF, form feed) removed from both ends; its tokens are the
    maximal runs of characters other than [' '] in the content, so
    ["arc 1\t2"] has the two tokens ["arc"] and ["1\t2"].  These are the
    tokens [String.split_on_char ' '] gives on the trimmed content, empty
    ones dropped.

    The scanner walks the text by index and allocates nothing per line
    or per token; only {!token} and the fallback of {!int} build
    strings. *)

type t

val create : string -> t

val next_line : t -> bool
(** Moves to the next line, before its first token; [false] once every
    line has been visited. *)

val line : t -> int
(** The current line's number. *)

val tokens : t -> int
(** The number of tokens on the current line. *)

val next_token : t -> bool
(** Moves to the current line's next token; [false] when none is left. *)

val is : t -> string -> bool
(** Whether the current token equals the given string. *)

val token : t -> string
(** The current token, as a fresh string. *)

exception Not_int

val int : t -> int
(** The current token as [int_of_string] reads it: plain decimals are
    read in place, any other form ([0x], [_], a sign, 19 or more digits)
    goes through [int_of_string_opt].  Raises {!Not_int} when that
    rejects it. *)
