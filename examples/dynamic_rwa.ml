(* Online vs offline wavelength assignment on a growing request stream.

   Lightpath requests arrive in batches; the online policy routes each
   arrival on a min-load path and first-fit colors it, never
   reconfiguring; the offline column shows what a full re-optimization
   would need at the same instant.  Both scenarios run on
   internal-cycle-free networks, so Theorem 1 makes the offline column
   exact (= the routing load) rather than a heuristic:

   - a meshy 4x6 optical backbone with hotspot traffic, where online
     first-fit happens to track the optimum closely;
   - a 30-node metro line with uniform lightpaths, the classic shape where
     arrival order costs real wavelengths.

   Run with: dune exec examples/dynamic_rwa.exe [seed] *)

open Wl_core
module Generators = Wl_netgen.Generators
module Traffic = Wl_netgen.Traffic
module Prng = Wl_util.Prng

let run_scenario name dag model rng ~batch_size ~n_batches =
  Format.printf "%s: %d nodes, %d links@." name (Wl_dag.Dag.n_vertices dag)
    (Wl_dag.Dag.n_arcs dag);
  Format.printf "%6s %10s %8s %10s %12s %12s@." "batch" "requests" "load"
    "online-ff" "offline-opt" "gain";
  let arrivals = Traffic.batches rng dag ~batch_size ~n_batches model in
  let router = Routing.min_load_router dag in
  let routed = ref [] in
  let total_gain = ref 0 in
  List.iteri
    (fun i batch ->
      List.iter
        (fun req ->
          match router req with
          | Ok p -> routed := !routed @ [ p ]
          | Error e -> Format.printf "routing failed: %s@." (Error.to_string e))
        batch;
      let inst = Instance.make dag !routed in
      let pi = Load.pi inst in
      (* Online coloring: first-fit in arrival order is exactly what an
         incremental assigner would have produced. *)
      let online =
        Assignment.n_wavelengths (Assignment.normalize (Baselines.first_fit inst))
      in
      (* Offline: Theorem 1 re-optimization (exact, = load). *)
      let offline =
        Assignment.n_wavelengths (Assignment.normalize (Theorem1.color inst))
      in
      assert (offline = pi);
      total_gain := !total_gain + (online - offline);
      Format.printf "%6d %10d %8d %10d %12d %12d@." (i + 1)
        (Instance.n_paths inst) pi online offline (online - offline))
    arrivals;
  Format.printf "cumulative reconfiguration dividend: %d wavelength-batches@.@."
    !total_gain

let () =
  let seed = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 11 in
  let rng = Prng.create seed in
  let backbone =
    Generators.without_internal_cycle rng
      (Generators.backbone rng ~pops:4 ~levels:6)
  in
  run_scenario "mesh backbone, hotspot traffic" backbone
    (fun rng dag k -> Traffic.hotspot rng dag ~hubs:2 ~bias:0.6 k)
    rng ~batch_size:8 ~n_batches:10;
  let line =
    Result.get_ok
      (Wl_dag.Dag.of_digraph
         (Wl_digraph.Digraph.of_arcs 30 ~src:(Array.init 29 Fun.id)
            ~dst:(Array.init 29 succ)))
  in
  run_scenario "metro line, uniform lightpaths" line Traffic.uniform rng
    ~batch_size:15 ~n_batches:8;
  Format.printf
    "The offline column is exact (Theorem 1: wavelengths = load on these@.\
     cycle-free networks); the gain column is the price of never@.\
     reconfiguring, which depends on workload shape.@."
