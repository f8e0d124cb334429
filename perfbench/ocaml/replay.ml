(* A bare Engine replay of wlrpc requests: the reference the served answers
   are compared with.  A threaded Shard (the daemon's) runs a single
   mutation as a one-op Engine.submit (one op per tenant per wave in a
   closed loop), which solves at once after a warm-path fallback; a sync
   Shard calls Engine.add_path directly and solves only at the next report.
   The two can end in different, equally valid colourings, so a replay
   mirrors one of them: [direct] selects the sync shard's calls.  The
   traced run uses it for the op-by-op differential and for the final-state
   agreement, so both checks share one replay. *)

open Wl_core
module Engine = Wl_engine.Engine
module Proto = Wl_serve.Proto

(* Wraps each engine call; the traced run records a span here. *)
type timer = { run : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { run = (fun _ f -> f ()) }

type t = { direct : bool; sessions : (string, Engine.session) Hashtbl.t }

let create ?(direct = false) () = { direct; sessions = Hashtbl.create 64 }

let no_session tenant : Proto.reply = Error (Error.Invalid_op ("no session for tenant " ^ tenant))

let with_session t tenant f =
  match Hashtbl.find_opt t.sessions tenant with None -> no_session tenant | Some s -> f s

let report s = Proto.report_of_solver (Engine.report s)

let single t s op =
  if not t.direct then (Engine.submit s [ op ]).Engine.outcomes.(0)
  else
    match op with
    | Engine.Add_path vs -> Result.map (fun id -> Engine.Path_added id) (Engine.add_path s vs)
    | Engine.Remove_path id -> Result.map (fun () -> Engine.Path_removed id) (Engine.remove_path s id)
    | Engine.Add_arc (x, y) -> Result.map (fun a -> Engine.Arc_added a) (Engine.add_arc s x y)

(* Span names: the daemon's engine work is "engine.*", and its adds and
   removes are one-op submits. *)
let name t verb = (if t.direct then "engine_direct." else "engine.") ^ verb
let mutation t verb = name t (if t.direct then verb else "submit")

(* The reply a daemon owes for [req], computed on a bare engine session. *)
let apply ?(timer = untimed) t (req : Proto.req) : Proto.reply =
  match req with
  | Proto.Open { tenant; instance } ->
    let s = timer.run (name t "create") (fun () -> Engine.create instance) in
    Hashtbl.replace t.sessions tenant s;
    Ok (Proto.R_open (timer.run (name t "report") (fun () -> report s)))
  | Proto.Add_path { tenant; vertices } ->
    with_session t tenant (fun s ->
        match timer.run (mutation t "add") (fun () -> single t s (Engine.Add_path vertices)) with
        | Ok (Engine.Path_added id) -> Ok (Proto.R_path id)
        | Ok _ -> Error (Error.Invalid_op "outcome shape")
        | Error e -> Error e)
  | Proto.Remove_path { tenant; id } ->
    with_session t tenant (fun s ->
        match timer.run (mutation t "remove") (fun () -> single t s (Engine.Remove_path id)) with
        | Ok (Engine.Path_removed _) -> Ok (Proto.R_removed id)
        | Ok _ -> Error (Error.Invalid_op "outcome shape")
        | Error e -> Error e)
  | Proto.Report { tenant } ->
    with_session t tenant (fun s ->
        Ok (Proto.R_report (timer.run (name t "report") (fun () -> report s))))
  | Proto.Color_of { tenant; id } ->
    with_session t tenant (fun s -> Result.map (fun c -> Proto.R_color c) (Engine.color_of s id))
  | _ -> Error (Error.Invalid_op "request outside the replayed verbs")

(* Totals over every session this replay has run: accepted ops, ops
   handled warm, warm attempts that fell back. *)
let stats t =
  let all = Hashtbl.fold (fun _ s acc -> Engine.stats s :: acc) t.sessions [] in
  List.fold_left
    (fun (ops, warm, fb) (st : Engine.stats) ->
      ( ops + st.Engine.ops,
        warm + st.Engine.warm_hits + st.Engine.fresh_colors + st.Engine.repairs + st.Engine.warm_removes,
        fb + st.Engine.fallbacks ))
    (0, 0, 0) all
