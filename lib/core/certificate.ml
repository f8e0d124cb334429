open Wl_digraph
module Classify = Wl_dag.Classify

type issue = string

(* Independent validity check: walk every pair of family members and test
   arc-sharing directly on the dipaths (no occupancy index involved). *)
let assignment_valid_slow inst assignment =
  let ps = Instance.paths inst in
  let n = Array.length ps in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if assignment.(i) = assignment.(j) && Dipath.shares_arc ps.(i) ps.(j) then
        ok := false
    done
  done;
  !ok

(* Independent load: recount per arc from the dipaths. *)
let load_slow inst =
  let g = Instance.graph inst in
  let load = Array.make (max 1 (Digraph.n_arcs g)) 0 in
  Array.iter
    (fun p -> List.iter (fun a -> load.(a) <- load.(a) + 1) (Dipath.arcs p))
    (Instance.paths inst);
  Array.fold_left max 0 load

let audit inst (r : Solver.report) =
  let issues = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let n = Instance.n_paths inst in
  if Array.length r.Solver.assignment <> n then
    fail "assignment length %d <> family size %d"
      (Array.length r.Solver.assignment)
      n;
  if Array.length r.Solver.assignment = n then begin
    if not (assignment_valid_slow inst r.Solver.assignment) then
      fail "assignment has a monochromatic conflict";
    let used =
      Assignment.n_wavelengths (Assignment.normalize r.Solver.assignment)
    in
    if used <> r.Solver.n_wavelengths then
      fail "reported %d wavelengths, assignment uses %d" r.Solver.n_wavelengths
        used
  end;
  let pi = load_slow inst in
  if pi <> r.Solver.pi then fail "reported pi %d, recomputed %d" r.Solver.pi pi;
  if r.Solver.lower_bound < pi then
    fail "lower bound %d below the load %d" r.Solver.lower_bound pi;
  if r.Solver.n_wavelengths < r.Solver.lower_bound then
    fail "wavelengths %d below the claimed lower bound %d" r.Solver.n_wavelengths
      r.Solver.lower_bound;
  if r.Solver.optimal && r.Solver.n_wavelengths <> r.Solver.lower_bound then
    fail "claims optimality with wavelengths %d <> lower bound %d"
      r.Solver.n_wavelengths r.Solver.lower_bound;
  (* Method applicability and per-method guarantees, re-derived. *)
  let dag = Instance.dag inst in
  let cycles = Wl_dag.Internal_cycle.count_independent dag in
  let upp = Wl_dag.Upp.is_upp dag in
  (match r.Solver.method_used with
  | Solver.Theorem_1 ->
    if cycles <> 0 then fail "theorem-1 used despite %d internal cycles" cycles;
    if r.Solver.n_wavelengths <> pi then
      fail "theorem-1 must use exactly pi = %d wavelengths, used %d" pi
        r.Solver.n_wavelengths
  | Solver.Theorem_6 ->
    if not upp then fail "theorem-6 used on a non-UPP DAG";
    if cycles <> 1 then fail "theorem-6 used with %d internal cycles" cycles;
    if r.Solver.n_wavelengths > Theorem6.upper_bound pi then
      fail "theorem-6 exceeded ceil(4 pi/3): %d > %d" r.Solver.n_wavelengths
        (Theorem6.upper_bound pi)
  | Solver.Theorem_6_iterated ->
    if not upp then fail "iterated theorem-6 used on a non-UPP DAG";
    if cycles < 2 then
      fail "iterated theorem-6 used with %d internal cycles" cycles;
    if
      r.Solver.n_wavelengths
      > Bounds.theorem6_upper ~n_internal_cycles:cycles pi
    then
      fail "iterated bound exceeded: %d > %d" r.Solver.n_wavelengths
        (Bounds.theorem6_upper ~n_internal_cycles:cycles pi)
  | Solver.Exact_coloring ->
    (* Optimality claimed: cross-check against the independent exact solver
       when small enough to afford it. *)
    if n <= 16 && r.Solver.n_wavelengths <> Bounds.chromatic_exact inst then
      fail "exact coloring reported %d, chromatic number is %d"
        r.Solver.n_wavelengths (Bounds.chromatic_exact inst)
  | Solver.Heuristic -> ());
  (* Classification spot checks. *)
  let c = r.Solver.classification in
  if c.Classify.n_internal_cycles <> cycles then
    fail "classification reports %d internal cycles, recomputed %d"
      c.Classify.n_internal_cycles cycles;
  if c.Classify.is_upp <> upp then fail "classification UPP flag wrong";
  List.rev !issues
