open Wl_core
module Engine = Wl_engine.Engine
module Script = Wl_engine.Script
module Jsonx = Wl_json.Jsonx
module Ctx = Wl_obs.Ctx

let version = 1

let tenant_ok t =
  let ok = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false in
  String.length t > 0 && String.length t <= 128 && String.for_all ok t

type req =
  | Hello of int | Ping | Shutdown
  | Open of { tenant : string; instance : Instance.t }
  | Add_path of { tenant : string; vertices : int list }
  | Remove_path of { tenant : string; id : int }
  | Add_arc of { tenant : string; tail : int; head : int }
  | Submit of { tenant : string; ops : Engine.op list }
  | Report of { tenant : string } | Pi of { tenant : string }
  | Color_of of { tenant : string; id : int }
  | Stats of { tenant : string } | Health of { tenant : string }
  | Snapshot of { tenant : string } | Evict of { tenant : string }
  | Dstats | Dhealth | Trace_dump of { last : int }

type report = { n_wavelengths : int; pi : int; optimal : bool; method_name : string }

type health = {
  healthy : bool; add_p50 : int; add_p99 : int; remove_p50 : int; remove_p99 : int;
  warm_hit_recent : float; warm_hit_lifetime : float; fallback_streak : int;
}

type outcome = O_path of int | O_removed of int | O_arc of int

type lat_rollup = {
  l_count : int; l_p50 : int; l_p90 : int; l_p99 : int; l_p999 : int; l_max : int;
  l_ex_ns : int; l_ex_trace : int;
}

type tenant_row = {
  r_tenant : string; r_shard : int; r_paths : int; r_pi : int; r_ops : int;
  r_add_p50 : int; r_add_p99 : int; r_healthy : bool;
}

type dstats = {
  d_shards : int; d_sessions : int; d_add : lat_rollup; d_remove : lat_rollup;
  d_tenants : tenant_row list;
}

type dhealth = { dh_healthy : bool; dh_sessions : int; dh_unhealthy : string list }

type resp =
  | R_hello of int | R_pong | R_bye | R_open of report | R_path of int | R_removed of int
  | R_arc of int | R_report of report | R_pi of int | R_color of int | R_stats of Engine.stats
  | R_health of health
  | R_outcomes of { outcomes : (outcome, Error.t) result array; after : report }
  | R_snapshot of Instance.t | R_evicted | R_dstats of dstats | R_dhealth of dhealth
  | R_trace of string

type reply = (resp, Error.t) result

let report_of_solver (r : Solver.report) =
  { n_wavelengths = r.n_wavelengths; pi = r.pi; optimal = r.optimal;
    method_name = Solver.method_name r.method_used }

let health_of_engine (h : Engine.health) =
  { healthy = h.healthy; add_p50 = h.add_latency.p50; add_p99 = h.add_latency.p99;
    remove_p50 = h.remove_latency.p50; remove_p99 = h.remove_latency.p99;
    warm_hit_recent = h.warm_hit_recent; warm_hit_lifetime = h.warm_hit_lifetime;
    fallback_streak = h.fallback_streak }

let outcome_of_engine = function
  | Engine.Path_added id -> O_path id
  | Engine.Path_removed id -> O_removed id
  | Engine.Arc_added a -> O_arc a

(* --- the schema ------------------------------------------------------------ *)

(* Every message is one schema entry: a verb and an ordered list of typed
   fields, each with a JSON key.  Text writes the fields as positional
   tokens after the verb on the head line; what follows that line is the
   body.  JSON writes them under their keys, after ["verb"]; the empty key
   puts an object's keys inline.  Field values travel as a [values] list,
   typed field by field. *)
type _ values = [] : unit values | ( :: ) : 'a * 'b values -> ('a * 'b) values

type _ kind =
  | Int : int kind
  | Hex : int kind  (** text: hex digits without [0x]; JSON: a number *)
  | Bool : bool kind
  | Float : float kind
  | Word : (string -> bool) -> string kind  (** a token the predicate accepts *)
  | Many : 'a kind * bool -> 'a list kind  (** text: the rest of the line, counted if [true] *)
  | Record : 'a record -> 'a kind
  | Rows : string * 'a record -> 'a list kind
      (** text: a count, then one body line per row led by the tag; JSON: an
          array, after every other key *)
  | Message : 'a case list -> 'a kind  (** JSON: ["verb"], then the fields *)
  | Choice : 'a case list -> 'a kind  (** one-field entries; JSON: the verb as key *)
  | Err : Error.t kind
  | Body : 'a body -> 'a kind  (** text: the whole body; always the last field *)

and 'a record = Rec : 'v fields * ('v values -> 'a) * ('a -> 'v values) -> 'a record
and _ fields = [] : unit fields | ( :: ) : (string * 'a kind) * 'b fields -> ('a * 'b) fields

(* A schema entry: verb, fields, and the way to and from the message. *)
and 'm case =
  | Case : {
      verb : string; fields : 'v fields; inj : 'v values -> 'm; prj : 'm -> 'v values option;
    } -> 'm case

(* A verbatim document: its text form and its JSON tree. *)
and 'a body = {
  to_text : 'a -> string; of_text : string -> ('a, Error.t) result;
  to_json : 'a -> Jsonx.t; of_json : Jsonx.t -> ('a, Error.t) result;
}

let case verb fields inj prj = Case { verb; fields; inj; prj }
let int k = (k, Int)
let bool k = (k, Bool)
let tenant = ("tenant", Word tenant_ok)
let flat r = ("", Record r)
let proto_error msg = Error.Parse { line = 0; msg }

(* An entry with one field, and one without any for a constant constructor. *)
let one verb field inj prj =
  case verb [ field ] (fun [ v ] -> inj v) (fun m -> Option.map (fun v : _ values -> [ v ]) (prj m))

let none verb m = case verb [] (fun [] -> m) (fun m' -> if m' == m then Some [] else None)

let instance =
  { to_text = (fun i -> Serial.to_string i); of_text = Serial.of_string;
    to_json = Serial.to_jsonx; of_json = Serial.of_jsonx }

(* The op list travels as the bare ["ops"] array of a [wl-ops] document. *)
let script =
  { to_text = Script.to_string; of_text = Script.of_string;
    to_json = (fun ops -> Option.get (Jsonx.member "ops" (Script.to_jsonx ops)));
    of_json = (fun j -> Script.of_jsonx (Jsonx.Obj [ ("ops", j) ])) }

let doc =
  { to_text = Fun.id; of_text = Result.ok; to_json = (fun d -> Jsonx.Str d);
    of_json = (function Jsonx.Str d -> Ok d | _ -> Error (proto_error "doc is not a string")) }

let report =
  Rec
    ( [ int "w"; int "pi"; bool "optimal"; ("method", Word (fun _ -> true)) ],
      (fun [ n_wavelengths; pi; optimal; method_name ] ->
        { n_wavelengths; pi; optimal; method_name }),
      fun r -> [ r.n_wavelengths; r.pi; r.optimal; r.method_name ] )

let rollup =
  Rec
    ( [ int "count"; int "p50"; int "p90"; int "p99"; int "p999"; int "max"; int "ex_ns";
        ("ex_trace", Hex) ],
      (fun [ l_count; l_p50; l_p90; l_p99; l_p999; l_max; l_ex_ns; l_ex_trace ] ->
        { l_count; l_p50; l_p90; l_p99; l_p999; l_max; l_ex_ns; l_ex_trace }),
      fun r -> [ r.l_count; r.l_p50; r.l_p90; r.l_p99; r.l_p999; r.l_max; r.l_ex_ns; r.l_ex_trace ]
    )

let tenant_row =
  Rec
    ( [ tenant; int "shard"; int "paths"; int "pi"; int "ops"; int "add_p50"; int "add_p99";
        bool "healthy" ],
      (fun [ r_tenant; r_shard; r_paths; r_pi; r_ops; r_add_p50; r_add_p99; r_healthy ] ->
        { r_tenant; r_shard; r_paths; r_pi; r_ops; r_add_p50; r_add_p99; r_healthy }),
      fun r ->
        [ r.r_tenant; r.r_shard; r.r_paths; r.r_pi; r.r_ops; r.r_add_p50; r.r_add_p99; r.r_healthy ]
    )

let stats =
  Rec
    ( [ int "ops"; int "warm_hits"; int "fresh_colors"; int "repairs"; int "repair_flips";
        int "shrink_recolors"; int "warm_removes"; int "fallbacks"; int "full_solves";
        int "rejected" ],
      (fun [ ops; warm_hits; fresh_colors; repairs; repair_flips; shrink_recolors; warm_removes;
             fallbacks; full_solves; rejected ] : Engine.stats ->
        { ops; warm_hits; fresh_colors; repairs; repair_flips; shrink_recolors; warm_removes;
          fallbacks; full_solves; rejected }),
      fun s ->
        [ s.ops; s.warm_hits; s.fresh_colors; s.repairs; s.repair_flips; s.shrink_recolors;
          s.warm_removes; s.fallbacks; s.full_solves; s.rejected ] )

let health =
  Rec
    ( [ bool "healthy"; int "add_p50"; int "add_p99"; int "remove_p50"; int "remove_p99";
        ("warm_hit_recent", Float); ("warm_hit_lifetime", Float); int "fallback_streak" ],
      (fun [ healthy; add_p50; add_p99; remove_p50; remove_p99; warm_hit_recent;
             warm_hit_lifetime; fallback_streak ] ->
        { healthy; add_p50; add_p99; remove_p50; remove_p99; warm_hit_recent; warm_hit_lifetime;
          fallback_streak }),
      fun h ->
        [ h.healthy; h.add_p50; h.add_p99; h.remove_p50; h.remove_p99; h.warm_hit_recent;
          h.warm_hit_lifetime; h.fallback_streak ] )

let outcome =
  Choice
    [
      one "path" (int "") (fun i -> Ok (O_path i)) (function Ok (O_path i) -> Some i | _ -> None);
      one "removed" (int "") (fun i -> Ok (O_removed i))
        (function Ok (O_removed i) -> Some i | _ -> None);
      one "arc" (int "") (fun i -> Ok (O_arc i)) (function Ok (O_arc i) -> Some i | _ -> None);
      one "err" ("", Err) (fun e -> Error e) (function Error e -> Some e | _ -> None);
    ]

let requests : req case list =
  [
    one "hello" (int "version") (fun v -> Hello v) (function Hello v -> Some v | _ -> None);
    none "ping" Ping; none "shutdown" Shutdown;
    case "open" [ tenant; ("instance", Body instance) ]
      (fun [ tenant; instance ] -> Open { tenant; instance })
      (function Open { tenant; instance } -> Some [ tenant; instance ] | _ -> None);
    case "add_path" [ tenant; ("vertices", Many (Int, false)) ]
      (fun [ tenant; vertices ] -> Add_path { tenant; vertices })
      (function Add_path { tenant; vertices } -> Some [ tenant; vertices ] | _ -> None);
    case "remove_path" [ tenant; int "id" ] (fun [ tenant; id ] -> Remove_path { tenant; id })
      (function Remove_path { tenant; id } -> Some [ tenant; id ] | _ -> None);
    case "add_arc" [ tenant; int "from"; int "to" ]
      (fun [ tenant; tail; head ] -> Add_arc { tenant; tail; head })
      (function Add_arc { tenant; tail; head } -> Some [ tenant; tail; head ] | _ -> None);
    case "submit" [ tenant; ("ops", Body script) ] (fun [ tenant; ops ] -> Submit { tenant; ops })
      (function Submit { tenant; ops } -> Some [ tenant; ops ] | _ -> None);
    one "report" tenant (fun tenant -> Report { tenant })
      (function Report r -> Some r.tenant | _ -> None);
    one "pi" tenant (fun tenant -> Pi { tenant }) (function Pi r -> Some r.tenant | _ -> None);
    case "color_of" [ tenant; int "id" ] (fun [ tenant; id ] -> Color_of { tenant; id })
      (function Color_of { tenant; id } -> Some [ tenant; id ] | _ -> None);
    one "stats" tenant (fun tenant -> Stats { tenant })
      (function Stats r -> Some r.tenant | _ -> None);
    one "health" tenant (fun tenant -> Health { tenant })
      (function Health r -> Some r.tenant | _ -> None);
    one "snapshot" tenant (fun tenant -> Snapshot { tenant })
      (function Snapshot r -> Some r.tenant | _ -> None);
    one "evict" tenant (fun tenant -> Evict { tenant })
      (function Evict r -> Some r.tenant | _ -> None);
    none "dstats" Dstats; none "dhealth" Dhealth;
    one "tracedump" (int "last") (fun last -> Trace_dump { last })
      (function Trace_dump r -> Some r.last | _ -> None);
  ]

let replies : resp case list =
  [
    one "hello" (int "version") (fun v -> R_hello v) (function R_hello v -> Some v | _ -> None);
    none "pong" R_pong; none "bye" R_bye;
    one "open" (flat report) (fun r -> R_open r) (function R_open r -> Some r | _ -> None);
    one "path" (int "id") (fun id -> R_path id) (function R_path id -> Some id | _ -> None);
    one "removed" (int "id") (fun i -> R_removed i) (function R_removed i -> Some i | _ -> None);
    one "arc" (int "id") (fun id -> R_arc id) (function R_arc id -> Some id | _ -> None);
    one "report" (flat report) (fun r -> R_report r) (function R_report r -> Some r | _ -> None);
    one "pi" (int "pi") (fun pi -> R_pi pi) (function R_pi pi -> Some pi | _ -> None);
    one "color" (int "color") (fun c -> R_color c) (function R_color c -> Some c | _ -> None);
    one "stats" (flat stats) (fun s -> R_stats s) (function R_stats s -> Some s | _ -> None);
    one "health" (flat health) (fun h -> R_health h) (function R_health h -> Some h | _ -> None);
    case "outcomes"
      [ ("outcomes", Rows ("outcome", Rec ([ ("", outcome) ], (fun [ o ] -> o), fun o -> [ o ])));
        flat report ]
      (fun [ os; after ] -> R_outcomes { outcomes = Array.of_list os; after })
      (function R_outcomes r -> Some [ Array.to_list r.outcomes; r.after ] | _ -> None);
    one "snapshot" ("instance", Body instance) (fun i -> R_snapshot i)
      (function R_snapshot i -> Some i | _ -> None);
    none "evicted" R_evicted;
    case "dstats"
      [ int "shards"; int "sessions"; ("tenants", Rows ("tenant", tenant_row));
        ("add", Record rollup); ("remove", Record rollup) ]
      (fun [ d_shards; d_sessions; d_tenants; d_add; d_remove ] ->
        R_dstats { d_shards; d_sessions; d_add; d_remove; d_tenants })
      (function
        | R_dstats d -> Some [ d.d_shards; d.d_sessions; d.d_tenants; d.d_add; d.d_remove ]
        | _ -> None);
    case "dhealth" [ bool "healthy"; int "sessions"; ("unhealthy", Many (Word tenant_ok, true)) ]
      (fun [ dh_healthy; dh_sessions; dh_unhealthy ] ->
        R_dhealth { dh_healthy; dh_sessions; dh_unhealthy })
      (function R_dhealth h -> Some [ h.dh_healthy; h.dh_sessions; h.dh_unhealthy ] | _ -> None);
    one "trace" ("doc", Body doc) (fun d -> R_trace d) (function R_trace d -> Some d | _ -> None);
  ]

(* A reply frame is "ok" and the reply, or "err" and the error. *)
let reply : reply kind =
  Choice
    [
      one "err" ("", Err) (fun e -> Error e) (function Error e -> Some e | Ok _ -> None);
      one "ok" ("", Message replies) (fun r -> Ok r) (function Ok r -> Some r | Error _ -> None);
    ]

(* The list syntax means plain lists again from here on; the codecs reach
   the schema's [fields] and [values] through their types. *)
type 'a list = 'a Stdlib.List.t = [] | ( :: ) of 'a * 'a list

(* The entry a message falls under, with its field values. *)
type found = Found : string * 'v fields * 'v values -> found

let rec find : type m. m case list -> m -> found =
 fun cases m ->
  match cases with
  | Case k :: rest -> (
    match k.prj m with Some vs -> Found (k.verb, k.fields, vs) | None -> find rest m)
  | [] -> invalid_arg "Proto: message outside the schema"

let request_verbs = List.map (fun (Case k) -> k.verb) requests
let reply_verbs = List.map (fun (Case k) -> k.verb) replies
let verb_of_req r = match find requests r with Found (verb, _, _) -> verb

(* --- structured errors ----------------------------------------------------- *)

exception Bad of Error.t
let bad msg = raise (Bad (proto_error msg))
let ok_or_bad = function Ok v -> v | Error e -> raise (Bad e)
let check_version v = if v <> version then raise (Bad (Error.Unsupported_version v))
let check ok w = if not (ok w) then invalid_arg ("Proto: invalid tenant id " ^ w)

(* An error on the wire: its {!Error.to_code} code, its constructor's name,
   then its number and message fields, each with its JSON key. *)
let parts = function
  | Error.Parse { line; msg } -> ("parse", Some ("line", line), Some ("msg", msg))
  | Error.Bad_index { what; index } -> ("bad_index", Some ("index", index), Some ("what", what))
  | Error.Unsupported_version v -> ("unsupported_version", Some ("version", v), None)
  | Error.Invalid_path m -> ("invalid_path", None, Some ("msg", m))
  | Error.Cyclic m -> ("cyclic", None, Some ("msg", m))
  | Error.Invalid_op m -> ("invalid_op", None, Some ("msg", m))
  | Error.Precondition m -> ("precondition", None, Some ("msg", m))
  | Error.Io m -> ("io", None, Some ("msg", m))

(* The inverse of [parts].  An unknown constructor from a future revision
   degrades through the shared code table rather than failing the frame. *)
let error_of ~code ~ctor ~num msg =
  match ctor with
  | "parse" -> Error.Parse { line = num; msg }
  | "bad_index" -> Error.Bad_index { what = msg; index = num }
  | "unsupported_version" -> Error.Unsupported_version num
  | "invalid_path" -> Error.Invalid_path msg | "cyclic" -> Error.Cyclic msg
  | "invalid_op" -> Error.Invalid_op msg | "precondition" -> Error.Precondition msg
  | "io" -> Error.Io msg
  | _ -> ( match Error.of_code code msg with Some e -> e | None -> bad ("unknown error " ^ ctor))

let error_to_json e =
  let ctor, num, msg = parts e in
  let opt f = function Some (k, x) -> [ (k, f x) ] | None -> [] in
  let code = Jsonx.Int (Error.to_code e) in
  Jsonx.Obj
    ((("code", code) :: ("ctor", Jsonx.Str ctor) :: opt (fun n -> Jsonx.Int n) num)
    @ opt (fun m -> Jsonx.Str m) msg)

(* Absent fields take defaults, so a sparse error object still decodes. *)
let error_of_json j =
  let get k conv = Option.bind (Jsonx.member k j) conv in
  let int k d = Option.value (get k Jsonx.to_int) ~default:d in
  match (get "code" Jsonx.to_int, get "ctor" Jsonx.to_str) with
  | Some code, Some ctor ->
    let num, msg =
      match ctor with
      | "parse" -> (int "line" 0, "msg")
      | "bad_index" -> (int "index" (-1), "what")
      | _ -> (int "version" (-1), "msg")
    in
    error_of ~code ~ctor ~num (Option.value (get msg Jsonx.to_str) ~default:"")
  | _ -> bad "error object without code or ctor"

(* In text the message goes last, with newlines and backslashes escaped so
   the line stays a line. *)
let escape m =
  String.split_on_char '\\' m |> String.concat "\\\\" |> String.split_on_char '\n'
  |> String.concat "\\n"

let unescape s =
  let b = Buffer.create (String.length s) and n = String.length s in
  let rec go i =
    if i < n - 1 && s.[i] = '\\' then begin
      Buffer.add_char b (if s.[i + 1] = 'n' then '\n' else s.[i + 1]);
      go (i + 2)
    end
    else if i < n then (Buffer.add_char b s.[i]; go (i + 1))
  in
  go 0;
  Buffer.contents b

(* --- text: one cursor over the payload ------------------------------------- *)

(* Tokens are the runs of bytes other than ' ' in [pos, stop), the head
   line; the body is everything after it. *)
type cur = { s : string; mutable pos : int; stop : int }

let cursor s = { s; pos = 0; stop = (try String.index s '\n' with Not_found -> String.length s) }

let body c =
  let n = String.length c.s in
  if c.stop < n then String.sub c.s (c.stop + 1) (n - c.stop - 1) else ""

let more c =
  while c.pos < c.stop && c.s.[c.pos] = ' ' do c.pos <- c.pos + 1 done;
  c.pos < c.stop

(* Moves past the next token and returns its start; it ends at [c.pos]. *)
let next c =
  if not (more c) then bad "missing token";
  let st = c.pos in
  while c.pos < c.stop && c.s.[c.pos] <> ' ' do c.pos <- c.pos + 1 done;
  st

let rec same s i w j = j = String.length w || (s.[i + j] = w.[j] && same s i w (j + 1))
let is c st w = c.pos - st = String.length w && same c.s st w 0
let tok c = let st = next c in String.sub c.s st (c.pos - st)

let rec decimal s i stop acc =
  if i >= stop then acc
  else if s.[i] < '0' || s.[i] > '9' then -1
  else decimal s (i + 1) stop ((acc * 10) + Char.code s.[i] - 48)

(* As [int_of_string_opt] reads a token: plain decimals of up to 18 digits
   (which cannot overflow) in place, every other form through it. *)
let int c =
  let st = next c in
  let d = if c.pos - st <= 18 then decimal c.s st c.pos 0 else -1 in
  if d >= 0 then d
  else
    match int_of_string_opt (String.sub c.s st (c.pos - st)) with
    | Some v -> v
    | None -> bad "expected an integer"

(* Every token left on the line, each read by [read]. *)
let all c read =
  let rec go acc = if more c then go (read c :: acc) else List.rev acc in
  go []

(* After "err": CODE CTOR, then the constructor's arguments, message last
   (the rest of the line, tokens joined by single spaces).  A missing
   number or a stray argument falls back on the code table. *)
let error_of_text c =
  let code = int c in
  let ctor = tok c in
  let args = c.pos in
  let msg () = unescape (String.concat " " (all c tok)) in
  match ctor with
  | ("parse" | "bad_index") when more c ->
    let num = int c in
    error_of ~code ~ctor ~num (msg ())
  | "unsupported_version" when more c && (ignore (next c); not (more c)) ->
    c.pos <- args;
    error_of ~code ~ctor ~num:(int c) ""
  | "parse" | "bad_index" | "unsupported_version" ->
    c.pos <- args;
    error_of ~code ~ctor:"" ~num:0 (msg ())
  | _ -> error_of ~code ~ctor ~num:0 (msg ())

let rec read : type a. cur -> a kind -> a =
 fun c -> function
  | Int -> int c
  | Hex -> ( match int_of_string_opt ("0x" ^ tok c) with Some v -> v | None -> bad "expected hex")
  | Bool ->
    let st = next c in
    if is c st "true" || is c st "false" then is c st "true" else bad "expected a bool"
  | Float -> ( match float_of_string_opt (tok c) with Some f -> f | None -> bad "expected a float")
  | Word ok -> let w = tok c in if ok w then w else bad ("invalid word " ^ w)
  | Many (k, counted) ->
    let n = if counted then int c else 0 in
    let xs = all c (fun c -> read c k) in
    if counted && List.length xs <> n then bad "count does not match the list" else xs
  | Record (Rec (fs, inj, _)) -> inj (read_fields c fs)
  | Rows (tag, r) ->
    let n = int c in
    let lines = List.filter (( <> ) "") (String.split_on_char '\n' (body c)) in
    if List.length lines <> n then bad (tag ^ " count does not match the body");
    List.map
      (fun l ->
        let c = cursor l in
        if not (is c (next c) tag) then bad ("expected a " ^ tag ^ " line");
        let row = read c (Record r) in
        if more c then bad ("trailing token on a " ^ tag ^ " line") else row)
      lines
  | Message cases | Choice cases -> (
    let st = next c in
    match List.find_opt (fun (Case k) -> is c st k.verb) cases with
    | Some (Case k) -> k.inj (read_fields c k.fields)
    | None -> bad "unknown verb")
  | Err -> error_of_text c
  | Body b -> if more c then bad "trailing token" else ok_or_bad (b.of_text (body c))

and read_fields : type v. cur -> v fields -> v values =
 fun c -> function [] -> [] | (_, k) :: fs -> let v = read c k in v :: read_fields c fs

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let sp b s = Buffer.add_char b ' '; Buffer.add_string b s
let nl b = Buffer.add_char b '\n'

(* The head line's tokens, each after a space.  What goes after the line,
   rows or a verbatim document, is pushed on [body] for later. *)
let rec write : type a. Buffer.t -> (unit -> unit) list ref -> a kind -> a -> unit =
 fun b body kind v ->
  match kind with
  | Int -> if v >= 0 then (Buffer.add_char b ' '; add_digits b v) else sp b (string_of_int v)
  | Hex -> sp b (Printf.sprintf "%x" v)
  | Bool -> sp b (string_of_bool v)
  | Float -> sp b (Printf.sprintf "%.17g" v)
  | Word ok -> check ok v; sp b v
  | Many (k, counted) ->
    if counted then write b body Int (List.length v);
    List.iter (fun x -> write b body k x) v
  | Record (Rec (fs, _, prj)) -> write_fields b body fs (prj v)
  | Rows (tag, r) ->
    write b body Int (List.length v);
    let row x = Buffer.add_string b tag; write b body (Record r) x; nl b in
    body := (fun () -> List.iter row v) :: !body
  | Message cases | Choice cases -> (
    match find cases v with Found (verb, fs, vs) -> sp b verb; write_fields b body fs vs)
  | Err ->
    let ctor, num, msg = parts v in
    Printf.bprintf b " %d %s" (Error.to_code v) ctor;
    Option.iter (fun (_, n) -> Printf.bprintf b " %d" n) num;
    Option.iter (fun (_, m) -> sp b (escape m)) msg
  | Body d -> body := (fun () -> Buffer.add_string b (d.to_text v)) :: !body

and write_fields : type v. Buffer.t -> (unit -> unit) list ref -> v fields -> v values -> unit =
 fun b body fs vs ->
  match (fs, vs) with
  | [], [] -> ()
  | (_, k) :: fs, v :: vs -> write b body k v; write_fields b body fs vs

(* --- JSON: named keys on the Jsonx tree ------------------------------------ *)

let rec of_json : type a. a kind -> Jsonx.t -> a =
 fun kind j ->
  match (kind, j) with
  | Int, Jsonx.Int i -> i
  | Hex, Jsonx.Int i -> i
  | Bool, Jsonx.Bool b -> b
  | Float, Jsonx.Float f -> f
  | Float, Jsonx.Int i -> float_of_int i
  | Word ok, Jsonx.Str w when ok w -> w
  | Many (k, _), Jsonx.Arr xs -> List.map (of_json k) xs
  | Rows (_, r), Jsonx.Arr xs -> List.map (of_json (Record r)) xs
  | Record (Rec (fs, inj, _)), _ -> inj (fields_of_json j fs)
  | Message cases, _ -> (
    let verb = Option.bind (Jsonx.member "verb" j) Jsonx.to_str in
    match List.find_opt (fun (Case k) -> Some k.verb = verb) cases with
    | Some (Case k) -> k.inj (fields_of_json j k.fields)
    | None -> bad "missing or unknown verb")
  | Choice cases, _ -> (
    (* The first entry whose key is there, holding an int if the entry's
       field is one. *)
    let read (Case k) =
      match (k.fields, Jsonx.member k.verb j) with
      | [ (_, Int) ], Some (Jsonx.Int i) -> Some (k.inj [ i ])
      | [ (_, Int) ], _ | _, None -> None
      | [ (_, f) ], Some x -> Some (k.inj [ of_json f x ])
      | _ -> None
    in
    match List.find_map read cases with Some v -> v | None -> bad "no known key")
  | Err, _ -> error_of_json j
  | Body b, _ -> ok_or_bad (b.of_json j)
  | _ -> bad "malformed field"

(* Each field under its key, or inline under the empty key. *)
and fields_of_json : type v. Jsonx.t -> v fields -> v values =
 fun j -> function
  | [] -> []
  | (key, k) :: fs ->
    let v = match if key = "" then Some j else Jsonx.member key j with
      | Some x -> of_json k x
      | None -> bad ("missing " ^ key) in
    v :: fields_of_json j fs

let rec to_json : type a. a kind -> a -> Jsonx.t =
 fun kind v ->
  match kind with
  | Int -> Jsonx.Int v
  | Hex -> Jsonx.Int v
  | Bool -> Jsonx.Bool v
  | Float -> Jsonx.Float v
  | Word ok -> check ok v; Jsonx.Str v
  | Many (k, _) -> Jsonx.Arr (List.map (to_json k) v)
  | Rows (_, r) -> Jsonx.Arr (List.map (to_json (Record r)) v)
  | Err -> error_to_json v
  | Body b -> b.to_json v
  | Record (Rec (fs, _, prj)) -> Jsonx.Obj (fields_json fs (prj v))
  | Message cases -> (
    match find cases v with
    | Found (verb, fs, vs) -> Jsonx.Obj (("verb", Jsonx.Str verb) :: fields_json fs vs))
  | Choice cases -> (
    match find cases v with
    | Found (verb, [ (_, k) ], [ v ]) -> Jsonx.Obj [ (verb, to_json k v) ]
    | Found _ -> invalid_arg "Proto: choice entry with several fields")

(* In field order, except that rows go after every other key. *)
and fields_json : type v. v fields -> v values -> (string * Jsonx.t) list =
 fun fs vs ->
  let rec pairs : type v. bool -> v fields -> v values -> (string * Jsonx.t) list =
   fun rows fs vs ->
    match (fs, vs) with
    | [], [] -> []
    | (key, k) :: fs, v :: vs ->
      let is_rows = match k with Rows _ -> true | _ -> false in
      (if is_rows <> rows then [] else if key = "" then keys k v else [ (key, to_json k v) ])
      @ pairs rows fs vs
  in
  pairs false fs vs @ pairs true fs vs

(* An object kind's keys, to inline in the enclosing object. *)
and keys : type a. a kind -> a -> (string * Jsonx.t) list =
 fun k v -> match to_json k v with Jsonx.Obj kvs -> kvs | _ -> invalid_arg "Proto: not an object"

(* --- frames ---------------------------------------------------------------- *)

let is_json payload = String.length payload > 0 && payload.[0] = '{'

(* [wlrpc 1], then the optional trace context — a [ctx=TRACE:SPAN] token
   directly after the version, a ["ctx"] key in JSON — then the message.
   [Ctx.none] writes nothing, so untraced frames stay byte-identical to
   the pre-context protocol. *)
let encode kind ~json ~ctx m =
  if json then
    let ctx = if Ctx.is_none ctx then [] else [ ("ctx", Jsonx.Str (Ctx.to_string ctx)) ] in
    Jsonx.to_string (Jsonx.Obj ((("wlrpc", Jsonx.Int version) :: ctx) @ keys kind m))
  else begin
    let b = Buffer.create 64 and body = ref [] in
    Buffer.add_string b "wlrpc 1";
    if not (Ctx.is_none ctx) then sp b ("ctx=" ^ Ctx.to_string ctx);
    write b body kind m;
    nl b;
    List.iter (fun f -> f ()) !body;
    Buffer.contents b
  end

let ctx_of = function Some c -> c | None -> bad "malformed ctx"

let decode_text kind p =
  let c = cursor p in
  if not (is c (next c) "wlrpc") then bad "frame does not start with a wlrpc header";
  check_version (int c);
  let st = next c in
  let ctx =
    if c.pos - st >= 4 && same c.s st "ctx=" 0 then
      ctx_of (Ctx.of_string (String.sub c.s (st + 4) (c.pos - st - 4)))
    else (c.pos <- st; Ctx.none)
  in
  let m = read c kind in
  if more c then bad "trailing token" else (m, ctx)

let decode_json kind p =
  let j = match Jsonx.parse p with Ok j -> j | Error msg -> bad ("JSON: " ^ msg) in
  (match Option.bind (Jsonx.member "wlrpc" j) Jsonx.to_int with
  | Some v -> check_version v
  | None -> bad "missing wlrpc version");
  let ctx =
    match j with
    | Jsonx.Obj kvs -> (
      match List.filter (fun (k, _) -> k = "ctx") kvs with
      | [] -> Ctx.none
      | [ (_, x) ] -> ctx_of (Option.bind (Jsonx.to_str x) Ctx.of_string)
      | _ -> bad "duplicated ctx")
    | _ -> Ctx.none
  in
  (of_json kind j, ctx)

(* Decoders are total: every failure, raised or returned, is an [Error]. *)
let decode kind p =
  match if is_json p then decode_json kind p else decode_text kind p with
  | v -> Ok v
  | exception Bad e -> Error e
  | exception _ -> Error (proto_error "decode raised")

let encode_request ?(json = false) ?(ctx = Ctx.none) req = encode (Message requests) ~json ~ctx req
let encode_reply ?(json = false) ?(ctx = Ctx.none) r = encode reply ~json ~ctx r
let decode_request_ctx p = decode (Message requests) p
let decode_reply_ctx p = decode reply p
let decode_request p = Result.map fst (decode_request_ctx p)
let decode_reply p = Result.map fst (decode_reply_ctx p)
