(* Quickstart: build a DAG, route some requests, and assign wavelengths.

   Walks through the whole public API surface on a ten-line example:
   constructing a digraph, validating it as a DAG, checking the paper's
   structural hypotheses, and solving the wavelength-assignment problem
   with the dispatching solver.

   Everything is reached through the [Wl] umbrella facade (the
   [wavelength] library) — one [open] instead of one per sub-library.

   Run with: dune exec examples/quickstart.exe *)

open Wl

let () =
  (* A little optical network: two parallel east-west routes sharing their
     first and last hops. *)
  let g = Digraph.create () in
  let v name = Digraph.add_vertex ~label:name g in
  let paris = v "paris" in
  let lyon = v "lyon" in
  let geneva = v "geneva" in
  let torino = v "torino" in
  let milano = v "milano" in
  let arc a b = ignore (Digraph.add_arc g a b) in
  arc paris lyon;
  arc lyon geneva;
  arc lyon torino;
  arc geneva milano;
  arc torino milano;
  let dag = match Dag.of_digraph g with Ok d -> d | Error msg -> failwith msg in

  (* The paper's hypotheses are easy to check programmatically. *)
  let cls = Classify.classify dag in
  Format.printf "network: %a@." Classify.pp cls;

  (* Route requests along unique dipaths (this DAG is UPP), then solve. *)
  let requests = [ (paris, milano); (paris, milano); (lyon, milano); (geneva, milano) ] in
  match Routing.instance_of dag Routing.route_min_load requests with
  | Error e -> Format.printf "routing failed: %s@." (Error.to_string e)
  | Ok inst ->
    let report = Solver.solve inst in
    Format.printf "%a@." (Solver.pp_report ~stats:false) report;
    Format.printf "assignment:@.";
    Array.iteri
      (fun i p ->
        Format.printf "  wavelength %d: %a@."
          report.Solver.assignment.(i)
          (Dipath.pp g) p)
      (Instance.paths inst);
    (* Theorem 1 applies (no internal cycle): the wavelength count equals
       the load, which is optimal. *)
    assert (report.Solver.n_wavelengths = Load.pi inst);
    Format.printf "w = pi = %d, as Theorem 1 promises.@." (Load.pi inst);

    (* The same instance can seed a long-lived session that keeps the
       optimum warm while the demand set changes. *)
    let s = Engine.create inst in
    ignore (Engine.report s);
    (match Engine.add_path s [ paris; lyon; torino; milano ] with
    | Error e -> Format.printf "add failed: %s@." (Error.to_string e)
    | Ok _ ->
      let r = Engine.report s in
      Format.printf "after one more lightpath: w = %d (warm hit rate %.2f)@."
        r.Solver.n_wavelengths
        (Engine.hit_rate (Engine.stats s)))
