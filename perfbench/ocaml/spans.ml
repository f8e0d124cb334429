(* The benchmark's own spans.  They are kept in memory around the calls the
   benchmark makes into each layer; the program under test is never traced.
   A span names its op (all spans of one op share the op id) and the span
   that caused it.  Minor words are [Gc.minor_words] deltas around the same
   call, so the recording thread must be the only one allocating. *)

module Clock = Wl_obs.Clock
module Trace = Wl_obs.Trace

type span = {
  name : string;
  op : int;
  parent : int;
  t0 : int;
  mutable t1 : int;
  w0 : float;
  mutable words : float;
}

type t = { mutable spans : span array; mutable n : int }

let dummy = { name = ""; op = 0; parent = -1; t0 = 0; t1 = 0; w0 = 0.; words = 0. }
let create () = { spans = Array.make 1024 dummy; n = 0 }
let length t = t.n

let start t ~op ~parent name =
  if t.n = Array.length t.spans then
    t.spans <- Array.append t.spans (Array.make t.n dummy);
  let id = t.n in
  t.n <- t.n + 1;
  let w0 = Gc.minor_words () in
  t.spans.(id) <- { name; op; parent; t0 = Clock.now_ns (); t1 = 0; w0; words = 0. };
  id

let stop t id =
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  let s = t.spans.(id) in
  s.t1 <- t1;
  s.words <- w1 -. s.w0

let span t ~op ~parent name f =
  let id = start t ~op ~parent name in
  let r = f () in
  stop t id;
  r

let duration s = s.t1 - s.t0

(* Self time: the span's duration minus the part of its interval that its
   children cover (children of one span never overlap each other). *)
let self_times t =
  let cover = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let c = t.spans.(i) in
    if c.parent >= 0 then begin
      let p = t.spans.(c.parent) in
      let lo = max c.t0 p.t0 and hi = min c.t1 p.t1 in
      if hi > lo then cover.(c.parent) <- cover.(c.parent) + (hi - lo)
    end
  done;
  Array.init t.n (fun i -> duration t.spans.(i) - cover.(i))

type agg = { calls : int; total_ns : float; self_ns : float; words : float }

(* Per-name totals over every recorded span. *)
let aggregate t =
  let self = self_times t in
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    let a =
      match Hashtbl.find_opt tbl s.name with
      | Some a -> a
      | None -> { calls = 0; total_ns = 0.; self_ns = 0.; words = 0. }
    in
    Hashtbl.replace tbl s.name
      {
        calls = a.calls + 1;
        total_ns = a.total_ns +. float_of_int (duration s);
        self_ns = a.self_ns +. float_of_int self.(i);
        words = a.words +. s.words;
      }
  done;
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None -> { calls = 0; total_ns = 0.; self_ns = 0.; words = 0. }

let to_chrome t =
  let self = self_times t in
  let origin = if t.n = 0 then 0 else t.spans.(0).t0 in
  let depth = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.spans.(i).parent in
    if p >= 0 then depth.(i) <- depth.(p) + 1
  done;
  let events =
    List.init t.n (fun i ->
        let s = t.spans.(i) in
        {
          Trace.name = s.name;
          tid = 1;
          ts_us = float_of_int (s.t0 - origin) /. 1000.;
          dur_us = float_of_int (duration s) /. 1000.;
          depth = depth.(i);
          instant = false;
          args =
            [
              ("op", Trace.Int s.op);
              ("span", Trace.Int i);
              ("parent", Trace.Int s.parent);
              ("self_us", Trace.Float (float_of_int self.(i) /. 1000.));
              ("minor_words", Trace.Float s.words);
            ];
        })
  in
  Trace.to_chrome events

(* Writes the Chrome trace and checks it with the validator behind
   [wl trace-check]; returns the number of events. *)
let write_chrome t path =
  let doc = to_chrome t in
  let oc = open_out_bin path in
  output_string oc doc;
  close_out oc;
  Trace.validate_chrome doc
