(* Answer checks.  Each returns the list of failed claims; [] means the
   answer holds.  The checks re-derive what the paper guarantees on the
   benchmark's inputs, which are all free of internal cycles, so Theorem 1
   forces w = pi everywhere. *)

open Wl_core
module Dipath = Wl_digraph.Dipath
module Dag = Wl_dag.Dag
module Proto = Wl_serve.Proto
module Engine = Wl_engine.Engine

let fail fmt = Printf.ksprintf (fun s -> [ s ]) fmt

(* One route job: the selection, the instance built from it and its report. *)
let route ~dag ~(requests : Routing.request list) ~(sel : Routing.selection)
    ~inst ~(report : Solver.report) =
  let g = Dag.graph dag in
  let reqs = Array.of_list requests in
  let per_route =
    if Array.length sel.Routing.routes <> Array.length reqs then
      fail "%d routes for %d requests" (Array.length sel.Routing.routes) (Array.length reqs)
    else if Instance.n_paths inst <> Array.length reqs then
      fail "instance carries %d paths for %d requests" (Instance.n_paths inst) (Array.length reqs)
    else
      List.concat
        (List.init (Array.length reqs) (fun i ->
             let x, y = reqs.(i) and r = sel.Routing.routes.(i) in
             if Dipath.src r <> x || Dipath.dst r <> y then
               fail "route %d runs %d->%d for request %d->%d" i (Dipath.src r) (Dipath.dst r) x y
             else if Result.is_error (Dipath.of_vertices g (Dipath.vertices r)) then
               fail "route %d is not a dipath of the DAG" i
             else if not (Dipath.equal r (Instance.path inst i)) then
               fail "instance path %d is not route %d" i i
             else []))
  in
  let lb = sel.Routing.lower_bound and ml = sel.Routing.max_load and sl = sel.Routing.seed_load in
  per_route
  @ (if lb <= ml && ml <= sl then [] else fail "bracket broken: lb %d, load %d, seed %d" lb ml sl)
  @ (let load = Instance.max_arc_load inst in
     if load = ml then [] else fail "selection claims load %d, routes carry %d" ml load)
  @ (if report.Solver.pi = ml then [] else fail "pi %d <> max_load %d" report.Solver.pi ml)
  @ (if report.Solver.n_wavelengths = report.Solver.pi then []
     else fail "w %d <> pi %d on an internal-cycle-free DAG" report.Solver.n_wavelengths report.Solver.pi)
  @ Certificate.audit inst report

(* A served report on an internal-cycle-free instance. *)
let w_equals_pi ~what (r : Proto.report) =
  if r.Proto.n_wavelengths = r.Proto.pi then []
  else fail "%s: w %d <> pi %d" what r.Proto.n_wavelengths r.Proto.pi

(* A served snapshot re-solved locally must give the served pi and w. *)
let resolve ~what ~snapshot (r : Proto.report) =
  let local = Solver.solve snapshot in
  (if local.Solver.pi = r.Proto.pi && local.Solver.n_wavelengths = r.Proto.n_wavelengths then []
   else
     fail "%s: served pi %d w %d, local re-solve pi %d w %d" what r.Proto.pi
       r.Proto.n_wavelengths local.Solver.pi local.Solver.n_wavelengths)
  @ Certificate.audit snapshot local

let ops_sent ~what ~sent (st : Engine.stats) =
  if st.Engine.ops = sent then [] else fail "%s: daemon counted %d ops, %d were sent" what st.Engine.ops sent

(* Replies compare by their canonical text encoding. *)
let same_reply (a : Proto.reply) (b : Proto.reply) = Proto.encode_reply a = Proto.encode_reply b

