(* Benchmark and reproduction harness.

   The paper is a theory paper: its "evaluation" consists of the worked
   constructions of Figures 1, 3, 5, 9 and the quantitative claims of
   Theorems 1, 2, 6, 7.  This harness regenerates every one of them
   (tables E1-E12; the experiment ids match DESIGN.md), printing the
   paper's number next to the measured one, and then runs Bechamel
   micro-benchmarks on the algorithms (P1-P4).

   Run with: dune exec bench/main.exe            (everything)
             dune exec bench/main.exe -- tables  (reproduction tables only)
             dune exec bench/main.exe -- perf    (perf benches only)
             dune exec bench/main.exe -- perf --json [--domains D]
               (flat-core vs seed-baseline timings + parallel sweep
                trajectory, written to BENCH_core.json) *)

open Wl_core
module Figures = Wl_netgen.Figures
module Generators = Wl_netgen.Generators
module Path_gen = Wl_netgen.Path_gen
module Prng = Wl_util.Prng

let section id title =
  Printf.printf "\n== %s: %s ==\n" id title

let verdict ok = if ok then "ok" else "MISMATCH"

(* --- E1: Figure 1 — unbounded w at load 2 ------------------------------- *)

let e1 () =
  section "E1" "Figure 1: pi = 2, w = k (gap unbounded in the load)";
  Printf.printf "%4s %12s %12s %10s\n" "k" "pi (paper 2)" "w (paper k)" "verdict";
  List.iter
    (fun k ->
      let inst = Figures.fig1 k in
      let pi = Load.pi inst in
      let w = (Solver.solve inst).Solver.n_wavelengths in
      Printf.printf "%4d %12d %12d %10s\n" k pi w (verdict (pi = 2 && w = k)))
    [ 2; 3; 4; 5; 6; 7; 8 ]

(* --- E2: Figure 3 -------------------------------------------------------- *)

let e2 () =
  section "E2" "Figure 3: one internal cycle, pi = 2, w = 3, conflict graph C5";
  let inst = Figures.fig3 () in
  let pi = Load.pi inst in
  let w = Bounds.chromatic_exact inst in
  let c5 = Wl_conflict.Graph_props.is_cycle_graph (Conflict_of.build inst) in
  Printf.printf "pi = %d (paper 2)   w = %d (paper 3)   conflict graph C5 = %b   %s\n"
    pi w c5
    (verdict (pi = 2 && w = 3 && c5))

(* --- E3: Theorem 1 ------------------------------------------------------- *)

let e3 () =
  section "E3" "Theorem 1: w = pi on DAGs without internal cycle (random sweep)";
  Printf.printf "%6s %6s %7s %6s %6s %8s\n" "n" "arcs" "paths" "pi" "w" "verdict";
  let rng = Prng.create 20260704 in
  List.iter
    (fun (n, k) ->
      let dag = Generators.gnp_no_internal_cycle rng n (8.0 /. float_of_int n) in
      let inst = Path_gen.random_instance rng dag k in
      let a = Theorem1.color inst in
      let w = Assignment.n_wavelengths (Assignment.normalize a) in
      let pi = Load.pi inst in
      Printf.printf "%6d %6d %7d %6d %6d %8s\n" n
        (Wl_dag.Dag.n_arcs dag) (Instance.n_paths inst) pi w
        (verdict (Assignment.is_valid inst a && w = pi)))
    [ (50, 40); (100, 80); (200, 160); (400, 320); (800, 640); (1600, 1280) ];
  (* Rooted trees, the paper's warm-up class. *)
  List.iter
    (fun n ->
      let dag = Generators.random_rooted_tree rng n in
      let inst = Path_gen.random_instance rng dag n in
      let a = Theorem1.color inst in
      let w = Assignment.n_wavelengths (Assignment.normalize a) in
      let pi = Load.pi inst in
      Printf.printf "%6d %6d %7d %6d %6d %8s  (rooted tree)\n" n (n - 1)
        (Instance.n_paths inst) pi w
        (verdict (Assignment.is_valid inst a && w = pi)))
    [ 100; 500; 2000 ]

(* --- E4: Theorem 2 / Figure 5 -------------------------------------------- *)

let e4 () =
  section "E4" "Theorem 2 / Figure 5: internal cycle => family with pi = 2, w = 3";
  Printf.printf "%4s %6s %6s %16s %10s\n" "k" "pi" "w" "conflict graph" "verdict";
  List.iter
    (fun k ->
      let inst = Figures.fig5 k in
      let pi = Load.pi inst in
      let w = Bounds.chromatic_exact inst in
      let cg = Conflict_of.build inst in
      let shape =
        if Wl_conflict.Graph_props.is_cycle_graph cg then
          Printf.sprintf "C%d" (Wl_conflict.Ugraph.n_vertices cg)
        else "not a cycle"
      in
      Printf.printf "%4d %6d %6d %16s %10s\n" k pi w shape
        (verdict (pi = 2 && w = 3 && shape = Printf.sprintf "C%d" ((2 * k) + 1))))
    [ 2; 3; 4; 5; 6 ];
  Printf.printf
    "\nReplication of the k = 2 family: pi = 2h, w = ceil(5h/2) (ratio -> 5/4)\n";
  Printf.printf "%4s %6s %14s %14s %8s %10s\n" "h" "pi" "w (paper)" "w (measured)"
    "ratio" "verdict";
  List.iter
    (fun h ->
      let inst = Theorem2.replicate (Figures.fig5 2) h in
      let paper = Replication.ceil_div (5 * h) 2 in
      let measured =
        if h <= 4 then Bounds.chromatic_exact inst
        else begin
          (* Exact coloring is exponential; at larger h certify instead:
             covering coloring (upper) + independence bound (lower). *)
          let upper =
            match
              Replication.covering_coloring ~n_base:5
                ~sets:(Figures.odd_cycle_independent_sets 2) ~h ~n_colors:paper
            with
            | Some a when Assignment.is_valid inst a -> paper
            | _ -> max_int
          in
          let lower = Bounds.independence_lower inst in
          if lower = upper then upper else -1
        end
      in
      Printf.printf "%4d %6d %14d %14d %8.3f %10s\n" h (2 * h) paper measured
        (float_of_int measured /. float_of_int (2 * h))
        (verdict (measured = paper)))
    [ 1; 2; 3; 4; 6; 8; 12 ]

(* --- E5: UPP structure --------------------------------------------------- *)

let e5 () =
  section "E5" "Property 3 + Corollary 5: Helly, clique = load, no K23 (UPP sweep)";
  let rng = Prng.create 5 in
  let trials = 60 in
  let helly = ref 0 and clique = ref 0 and k23 = ref 0 and intervals = ref 0 in
  for _ = 1 to trials do
    let dag = Generators.gnp_upp rng 16 0.25 in
    let inst = Path_gen.random_instance rng dag 12 in
    if Upp_theorems.helly_holds inst then incr helly;
    if Upp_theorems.clique_number_equals_load inst then incr clique;
    if Upp_theorems.no_k23 inst then incr k23;
    if Upp_theorems.pairwise_intersections_are_intervals inst then incr intervals
  done;
  Printf.printf
    "random UPP instances: %d/%d Helly, %d/%d clique=load, %d/%d no-K23, \
     %d/%d interval intersections   %s\n"
    !helly trials !clique trials !k23 trials !intervals trials
    (verdict (!helly = trials && !clique = trials && !k23 = trials && !intervals = trials));
  (* Negative control: figure 1's family breaks Helly and clique = load. *)
  let inst = Figures.fig1 5 in
  Printf.printf "figure-1 control: helly = %b, clique = load = %b (paper: both false)\n"
    (Upp_theorems.helly_holds inst)
    (Upp_theorems.clique_number_equals_load inst)

(* --- E6: Theorem 6 ------------------------------------------------------- *)

let e6 () =
  section "E6" "Theorem 6: w <= ceil(4 pi/3) on one-internal-cycle UPP-DAGs";
  Printf.printf "%6s %6s %8s %8s %22s %8s\n" "trial" "pi" "w-algo" "bound"
    "sigma cycle type" "verdict";
  let rng = Prng.create 99 in
  let shown = ref 0 in
  let all_ok = ref true in
  for trial = 1 to 60 do
    let dag = Generators.upp_one_internal_cycle rng () in
    let paths =
      (* distinct dipaths: the regime the paper's proof covers *)
      let seen = Hashtbl.create 16 in
      List.filter
        (fun p ->
          let key = Wl_digraph.Dipath.vertices p in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        (Path_gen.random_family rng dag 14)
    in
    let inst = Instance.make dag paths in
    let a, stats = Theorem6.color_with_stats inst in
    let ok =
      Assignment.is_valid inst a
      && stats.Theorem6.n_colors <= Theorem6.upper_bound stats.Theorem6.pi
    in
    if not ok then all_ok := false;
    if !shown < 10 || not ok then begin
      incr shown;
      let ct =
        String.concat ","
          (List.map
             (fun (l, m) -> Printf.sprintf "%d^%d" l m)
             stats.Theorem6.cycle_type)
      in
      Printf.printf "%6d %6d %8d %8d %22s %8s\n" trial stats.Theorem6.pi
        stats.Theorem6.n_colors
        (Theorem6.upper_bound stats.Theorem6.pi)
        ct (verdict ok)
    end
  done;
  Printf.printf "... 60 trials total: %s\n" (verdict !all_ok)

(* --- E7: Figure 9 / Theorem 7 -------------------------------------------- *)

let e7 () =
  section "E7"
    "Theorem 7 / Figure 9: Havet family attains w = ceil(8h/3) = ceil(4 pi/3)";
  Printf.printf "%4s %6s %12s %12s %12s %12s %8s\n" "h" "pi" "w (paper)"
    "lower(alpha)" "upper(cover)" "thm6-algo" "verdict";
  List.iter
    (fun h ->
      let inst = Figures.havet h in
      let paper = Replication.ceil_div (8 * h) 3 in
      let lower = Bounds.independence_lower inst in
      let upper =
        match
          Replication.covering_coloring ~n_base:8
            ~sets:(Figures.havet_base_independent_sets ())
            ~h ~n_colors:paper
        with
        | Some a when Assignment.is_valid inst a -> paper
        | _ -> max_int
      in
      let algo =
        let a, stats = Theorem6.color_with_stats inst in
        if Assignment.is_valid inst a then stats.Theorem6.n_colors else -1
      in
      Printf.printf "%4d %6d %12d %12d %12d %12d %8s\n" h (2 * h) paper lower
        upper algo
        (verdict (lower = paper && upper = paper)))
    [ 1; 2; 3; 4; 6; 8; 12 ];
  Printf.printf
    "\nNote: the w column is certified exactly (matching lower and upper\n\
     bounds).  The thm6-algo column shows what the paper's constructive\n\
     proof produces; for h > 1 it exceeds the bound because the proof's\n\
     Facts 1-2 do not cover replicated (multiset) families — see\n\
     EXPERIMENTS.md.  The theorem itself holds: w = ceil(4 pi/3) exactly.\n"

(* --- E8: iterated Theorem 6 (the paper's closing remark) ------------------ *)

let dedup paths =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun p ->
      let key = Wl_digraph.Dipath.vertices p in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    paths

let e8 () =
  section "E8"
    "Closing remark: C internal cycles => w within C nested ceil(4/3 .)";
  Printf.printf "%4s %8s %6s %8s %8s %8s\n" "C" "trials" "maxpi" "max w" "max bnd"
    "verdict";
  let rng = Prng.create 4242 in
  List.iter
    (fun c ->
      let trials = 25 in
      let ok = ref true and max_pi = ref 0 and max_w = ref 0 and max_b = ref 0 in
      for _ = 1 to trials do
        let dag = Generators.upp_internal_cycles rng ~cycles:c () in
        let inst = Instance.make dag (dedup (Path_gen.random_family rng dag 14)) in
        let a = Theorem6_multi.color ~check:false inst in
        let pi = Load.pi inst in
        let w = Assignment.n_wavelengths (Assignment.normalize a) in
        let bound = Theorem6_multi.upper_bound ~n_internal_cycles:c pi in
        if (not (Assignment.is_valid inst a)) || w > bound then ok := false;
        max_pi := max !max_pi pi;
        max_w := max !max_w w;
        max_b := max !max_b bound
      done;
      Printf.printf "%4d %8d %6d %8d %8d %8s\n" c trials !max_pi !max_w !max_b
        (verdict !ok))
    [ 1; 2; 3; 4 ]

(* --- E9: grooming (the paper's concluding problem) ------------------------ *)

let e9 () =
  section "E9"
    "Concluding problem: max requests satisfiable with w wavelengths";
  Printf.printf "%6s %4s %8s %8s %8s %10s\n" "family" "w" "greedy" "exact"
    "line-opt" "verdict";
  (* Line instances: both exact solvers agree; greedy may lag. *)
  let rng = Prng.create 31 in
  let line n =
    Wl_digraph.Digraph.of_arcs n ~src:(Array.init (n - 1) Fun.id)
      ~dst:(Array.init (n - 1) succ)
  in
  List.iter
    (fun (k, w) ->
      let g = line 12 in
      let dag = Wl_dag.Dag.of_digraph_exn g in
      let paths =
        List.init k (fun _ ->
            let lo = Prng.int rng 11 in
            let hi = Prng.int_in rng (lo + 1) 11 in
            Wl_digraph.Dipath.make g (List.init (hi - lo + 1) (fun i -> lo + i)))
      in
      let inst = Instance.make dag paths in
      let greedy = (Grooming.greedy inst ~w).Grooming.size in
      let exact =
        match Grooming.exact inst ~w with
        | Some s -> s.Grooming.size
        | None -> -1
      in
      let line_opt =
        match Grooming.on_line inst ~w with
        | Some s -> s.Grooming.size
        | None -> -1
      in
      Printf.printf "%6d %4d %8d %8d %8d %10s\n" k w greedy exact line_opt
        (verdict (line_opt = exact && greedy <= exact)))
    [ (10, 1); (10, 2); (16, 2); (16, 3); (24, 3) ];
  (* Rooted trees — the case the paper singles out as "already a difficult
     one": no specialized exact solver exists here, so branch-and-bound
     carries the small sizes and greedy approximates beyond. *)
  Printf.printf
    "\nrooted trees (paper: \"appears already as a difficult one\"):\n";
  Printf.printf "%6s %4s %8s %8s %10s\n" "family" "w" "greedy" "exact" "gap";
  List.iter
    (fun (k, w) ->
      let dag = Generators.random_rooted_tree rng 20 in
      let inst = Path_gen.random_instance rng dag k in
      let greedy = (Grooming.greedy inst ~w).Grooming.size in
      let exact =
        match Grooming.exact inst ~w with
        | Some s -> s.Grooming.size
        | None -> -1
      in
      Printf.printf "%6d %4d %8d %8d %10d\n" k w greedy exact (exact - greedy))
    [ (12, 1); (12, 2); (18, 2); (18, 3) ];
  (* General no-internal-cycle DAGs: the Theorem 1 reduction colors every
     selected subfamily within w. *)
  let all_ok = ref true in
  for _ = 1 to 20 do
    let dag = Generators.gnp_no_internal_cycle rng 18 0.2 in
    let inst = Path_gen.random_instance rng dag 14 in
    let w = max 1 (Load.pi inst / 2) in
    match Grooming.satisfy inst ~w with
    | None -> all_ok := false
    | Some (_, assignment) ->
      if Assignment.n_wavelengths assignment > w then all_ok := false
  done;
  Printf.printf
    "\nselected subfamilies always w-colorable on cycle-free DAGs: %s\n"
    (verdict !all_ok)

(* --- E10: first-fit baseline ablation ------------------------------------ *)

let e10 () =
  section "E10"
    "Ablation: online first-fit vs the Theorem 1 constructive optimum";
  Printf.printf "%6s %6s %10s %10s %10s %12s\n" "arcs" "paths" "pi = opt"
    "first-fit" "worst-of-8" "overshoot";
  let rng = Prng.create 77 in
  (* Random lightpaths on a long line: the classic workload where online
     first-fit overshoots the (here optimal, by Theorem 1) load. *)
  List.iter
    (fun (n, k) ->
      let g =
        Wl_digraph.Digraph.of_arcs n ~src:(Array.init (n - 1) Fun.id)
          ~dst:(Array.init (n - 1) succ)
      in
      let dag = Wl_dag.Dag.of_digraph_exn g in
      let paths =
        List.init k (fun _ ->
            let lo = Prng.int rng (n - 2) in
            let hi = min (n - 1) (Prng.int_in rng (lo + 1) (lo + 1 + Prng.int rng 8)) in
            Wl_digraph.Dipath.make g (List.init (hi - lo + 1) (fun i -> lo + i)))
      in
      let inst = Instance.make dag paths in
      let pi = Load.pi inst in
      let ff =
        Assignment.n_wavelengths (Assignment.normalize (Baselines.first_fit inst))
      in
      let worst = ref 0 in
      for _ = 1 to 8 do
        let candidate =
          Assignment.n_wavelengths
            (Assignment.normalize (Baselines.first_fit_random rng inst))
        in
        if candidate > !worst then worst := candidate
      done;
      Printf.printf "%6d %6d %10d %10d %10d %11.1f%%\n" (n - 1)
        (Instance.n_paths inst) pi ff !worst
        (100.0 *. float_of_int (!worst - pi) /. float_of_int (max 1 pi)))
    [ (30, 60); (60, 150); (120, 400); (240, 1000) ]

(* --- E11: the paper's conjecture ------------------------------------------ *)

let e11 () =
  section "E11"
    "Conjecture (Section 5): is w / pi unbounded with unlimited internal \
     cycles?";
  Printf.printf
    "empirical search: exact w / pi maximized over random families on\n\
     UPP-DAGs with C internal cycles (small instances, exact chromatic).\n";
  Printf.printf "%4s %8s %12s %12s %14s\n" "C" "trials" "max w/pi" "max w"
    "iterated bnd";
  let rng = Prng.create 1234 in
  List.iter
    (fun c ->
      let trials = 40 in
      let best = ref 0.0 and best_w = ref 0 and best_bound = ref 0 in
      for _ = 1 to trials do
        let dag = Generators.upp_internal_cycles rng ~cycles:c () in
        (* Theorem-2-flavored families maximize the gap at small load. *)
        let family =
          match Theorem2.build dag with
          | Some inst -> Instance.paths_list inst
          | None -> []
        in
        let extra = dedup (Path_gen.random_family rng dag 6) in
        let inst = Instance.make dag (family @ extra) in
        if Instance.n_paths inst > 0 && Instance.n_paths inst <= 18 then begin
          let pi = Load.pi inst in
          let w = Bounds.chromatic_exact inst in
          if pi > 0 then begin
            let ratio = float_of_int w /. float_of_int pi in
            if ratio > !best then begin
              best := ratio;
              best_w := w;
              best_bound := Bounds.theorem6_upper ~n_internal_cycles:c pi
            end
          end
        end
      done;
      Printf.printf "%4d %8d %12.3f %12d %14d\n" c trials !best !best_w
        !best_bound)
    [ 1; 2; 3; 4 ];
  Printf.printf
    "\nNo family observed above the iterated bound; the largest ratios come\n\
     from odd-cycle conflict graphs at pi = 2 (the ceiling effect), matching\n\
     the paper's intuition that new constructions — not replication — would\n\
     be needed to push the ratio with more cycles.  The conjecture remains\n\
     open.\n"

(* --- E12: wavelength conversion ------------------------------------------- *)

let e12 () =
  section "E12"
    "Wavelength conversion (ref [10]): converters buy back w = pi";
  Printf.printf "%10s %6s %10s %14s %12s %10s\n" "instance" "pi" "w (none)"
    "w (greedy-1)" "w (full)" "verdict";
  List.iter
    (fun (name, inst) ->
      let pi = Load.pi inst in
      let base = (Solver.solve inst).Solver.n_wavelengths in
      let _, greedy1 = Conversion.greedy_placement inst ~budget:1 in
      let full =
        Conversion.wavelengths inst
          ~converters:(Wl_digraph.Digraph.vertices (Instance.graph inst))
      in
      Printf.printf "%10s %6d %10d %14d %12d %10s\n" name pi base
        greedy1.Solver.n_wavelengths full.Solver.n_wavelengths
        (verdict (full.Solver.n_wavelengths = pi)))
    [
      ("fig3", Figures.fig3 ());
      ("fig5-k3", Figures.fig5 3);
      ("havet-h1", Figures.havet 1);
      ("havet-h2", Figures.havet 2);
    ];
  Printf.printf
    "\nFull conversion always collapses w to the load (segments are single\n\
     arcs: per-arc cliques), and on these gap examples a single\n\
     well-placed converter already closes the pi-vs-w gap.\n"

(* --- Perf benches (P1-P4) ------------------------------------------------- *)

open Bechamel
open Toolkit

let make_thm1_bench n =
  let rng = Prng.create 1 in
  let dag = Generators.gnp_no_internal_cycle rng n (8.0 /. float_of_int n) in
  let inst = Path_gen.random_instance rng dag (3 * n / 4) in
  Test.make
    ~name:(Printf.sprintf "thm1/color/n=%d" n)
    (Staged.stage (fun () -> ignore (Theorem1.color inst)))

let make_thm6_bench k =
  let inst =
    let rng = Prng.create 2 in
    let dag = Generators.upp_one_internal_cycle rng ~extra_vertices:30 () in
    Wl_core.Instance.make dag
      (Path_gen.random_family rng dag k
      |> List.sort_uniq (fun p q -> Wl_digraph.Dipath.compare p q))
  in
  Test.make
    ~name:(Printf.sprintf "thm6/color/k=%d" k)
    (Staged.stage (fun () -> ignore (Theorem6.color ~check:false inst)))

let make_coloring_benches () =
  let inst =
    let rng = Prng.create 3 in
    let dag = Generators.gnp_dag rng 40 0.15 in
    Path_gen.random_instance rng dag 60
  in
  let cg = Conflict_of.build inst in
  [
    Test.make ~name:"coloring/dsatur/60-paths"
      (Staged.stage (fun () -> ignore (Wl_conflict.Coloring.dsatur cg)));
    Test.make ~name:"coloring/welsh-powell/60-paths"
      (Staged.stage (fun () -> ignore (Wl_conflict.Coloring.greedy_desc_degree cg)));
    Test.make ~name:"coloring/conflict-build/60-paths"
      (Staged.stage (fun () -> ignore (Conflict_of.build inst)));
  ]

let make_detection_benches n =
  let rng = Prng.create 4 in
  let dag = Generators.gnp_dag rng n (6.0 /. float_of_int n) in
  [
    Test.make
      ~name:(Printf.sprintf "detect/internal-cycle/n=%d" n)
      (Staged.stage (fun () ->
           ignore (Wl_dag.Internal_cycle.count_independent dag)));
    Test.make
      ~name:(Printf.sprintf "detect/upp/n=%d" n)
      (Staged.stage (fun () -> ignore (Wl_dag.Upp.is_upp dag)));
  ]

let make_misc_benches () =
  let rng = Prng.create 6 in
  let dag = Generators.upp_internal_cycles rng ~cycles:3 () in
  let multi_inst =
    Wl_core.Instance.make dag (dedup (Path_gen.random_family rng dag 20))
  in
  let groom_inst =
    let dag = Generators.gnp_no_internal_cycle rng 40 0.15 in
    Path_gen.random_instance rng dag 60
  in
  let groom_w = max 1 (Load.pi groom_inst / 2) in
  let text = Serial.to_string groom_inst in
  [
    Test.make ~name:"thm6-multi/color/C=3"
      (Staged.stage (fun () -> ignore (Theorem6_multi.color ~check:false multi_inst)));
    Test.make ~name:"grooming/greedy/60-paths"
      (Staged.stage (fun () -> ignore (Grooming.greedy groom_inst ~w:groom_w)));
    Test.make ~name:"serial/parse/60-paths"
      (Staged.stage (fun () -> ignore (Serial.of_string text)));
    Test.make ~name:"baseline/first-fit/60-paths"
      (Staged.stage (fun () -> ignore (Baselines.first_fit groom_inst)));
  ]

let run_perf () =
  print_newline ();
  print_endline "== P1-P4: performance micro-benchmarks (Bechamel, OLS ns/run) ==";
  let tests =
    List.map make_thm1_bench [ 100; 200; 400; 800 ]
    @ List.map make_thm6_bench [ 10; 20; 40 ]
    @ make_coloring_benches ()
    @ List.concat_map make_detection_benches [ 100; 400 ]
    @ make_misc_benches ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~stabilize:false ~quota:(Time.second 0.3) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ t ] -> Printf.printf "%-34s %12.0f ns/run\n" name t
          | _ -> Printf.printf "%-34s %12s\n" name "n/a")
        results)
    tests;
  print_newline ()

(* --- JSON perf engine ------------------------------------------------------

   Times the rewritten flat-core hot paths against the seed implementations
   (bench/legacy.ml) in the same run, on shared instances, and appends a
   domain-parallel sweep trajectory; the result is machine-readable
   (BENCH_core.json) so the perf history of the repo can be tracked from CI.
   Instance construction fans out over domains via Parallel.map_array; the
   timed sections themselves run sequentially so numbers stay clean. *)

module Metrics = Wl_obs.Metrics
module Store = Wl_obs.Store
module Jsonx = Wl_json.Jsonx

(* Counter snapshot of one un-timed run of [f]: reset, enable, run, read.
   Timed sections always run with metrics off so ns/op stays clean; the
   snapshot run is separate and costs one extra execution. *)
let counters_of_run f =
  Metrics.reset ();
  Metrics.set_enabled true;
  ignore (f ());
  Metrics.set_enabled false;
  let snap = Metrics.snapshot () in
  Metrics.reset ();
  List.map (fun (name, inst) -> (name, Store.json_of_instrument inst)) snap

let make_nic_instance (n, k) =
  let rng = Prng.create (20260704 + n) in
  let dag = Generators.gnp_no_internal_cycle rng n (8.0 /. float_of_int n) in
  Path_gen.random_instance rng dag k

let make_dense_ugraph (n, pct) =
  let rng = Prng.create (77 + n) in
  let g = Wl_conflict.Ugraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.int rng 100 < pct then Wl_conflict.Ugraph.add_edge g u v
    done
  done;
  g

let run_perf_json ~domains () =
  Printf.printf "== perf --json: flat-core vs seed baselines (%d domains) ==\n%!"
    domains;
  let thm1_sizes = [| (400, 320); (1600, 1280) |] in
  let dense_sizes = [| (300, 50); (800, 50) |] in
  (* Domain-parallel setup: every instance/graph is built concurrently. *)
  let thm1_insts = Wl_util.Parallel.map_array ~domains make_nic_instance thm1_sizes in
  let dense_graphs = Wl_util.Parallel.map_array ~domains make_dense_ugraph dense_sizes in
  let conflict_inst =
    let rng = Prng.create 3 in
    let dag = Generators.gnp_dag rng 60 0.12 in
    Path_gen.random_instance rng dag 150
  in
  let points = ref [] in
  let record ?(extras = []) name params f baseline =
    let sample = Wl_bench.Runner.measure (fun () -> ignore (f ())) in
    let baseline_ns =
      Option.map
        (fun b ->
          (Wl_bench.Runner.measure (fun () -> ignore (b ()))).Store.median_ns)
        baseline
    in
    let counters = counters_of_run f in
    Printf.printf "  %-32s %12.0f ns/op (± %.0f MAD)" name
      sample.Store.median_ns sample.Store.mad_ns;
    (match baseline_ns with
    | Some b ->
      Printf.printf "   baseline %12.0f ns/op   speedup %6.2fx" b
        (b /. sample.Store.median_ns)
    | None -> ());
    print_newline ();
    points :=
      { Store.name; params; extras; sample; baseline_ns; counters }
      :: !points
  in
  Array.iteri
    (fun i (n, k) ->
      let inst = thm1_insts.(i) in
      record
        (Printf.sprintf "thm1/color/n=%d" n)
        [ ("n", n); ("paths", k) ]
        (fun () -> Theorem1.color inst)
        (Some (fun () -> Legacy.theorem1_color inst)))
    thm1_sizes;
  Array.iteri
    (fun i (n, pct) ->
      let g = dense_graphs.(i) in
      record
        (Printf.sprintf "coloring/dsatur/dense-n=%d" n)
        [ ("n", n); ("edge_pct", pct); ("edges", Wl_conflict.Ugraph.n_edges g) ]
        (fun () -> Wl_conflict.Coloring.dsatur g)
        (Some (fun () -> Legacy.dsatur g)))
    dense_sizes;
  record "conflict/build/150-paths"
    [ ("n", 60); ("paths", 150) ]
    (fun () -> Conflict_of.build conflict_inst)
    (Some (fun () -> Legacy.conflict_build conflict_inst));
  record "load/pi/n=1600"
    [ ("n", 1600); ("paths", 1280) ]
    (fun () -> Load.pi thm1_insts.(1))
    None;
  (* Engine: one warm incremental mutation (add a path, query, remove it)
     on a live session over the n=1600 instance, against re-solving the
     grown instance from scratch — the dynamic-instance acceptance bench.
     The add/remove pair keeps the session state periodic so every timed
     iteration does the same work. *)
  let module Engine = Wl_engine.Engine in
  let inst1600 = thm1_insts.(1) in
  let bench_verts =
    Wl_digraph.Dipath.vertices (List.hd (Wl_core.Instance.paths_list inst1600))
  in
  let session1600 = Engine.create inst1600 in
  ignore (Engine.report session1600);
  let engine_step () =
    match Engine.add_path session1600 bench_verts with
    | Error e -> failwith (Error.to_string e)
    | Ok pid ->
      let r = Engine.report session1600 in
      (match Engine.remove_path session1600 pid with
      | Ok () -> ()
      | Error e -> failwith (Error.to_string e));
      r
  in
  let grown1600 =
    Wl_core.Instance.of_vertex_seqs
      (Wl_core.Instance.graph inst1600)
      (List.map Wl_digraph.Dipath.vertices (Wl_core.Instance.paths_list inst1600)
      @ [ bench_verts ])
    |> Error.get_exn
  in
  (* Steady-state warm hit rate, measured over a prewarm burst (the
     add/remove cycle is periodic, so these steps are representative). *)
  let pre = Engine.stats session1600 in
  for _ = 1 to 8 do
    ignore (engine_step ())
  done;
  let post = Engine.stats session1600 in
  let steady_rate =
    Engine.hit_rate
      {
        post with
        Engine.ops = post.Engine.ops - pre.Engine.ops;
        warm_hits = post.Engine.warm_hits - pre.Engine.warm_hits;
        fresh_colors = post.Engine.fresh_colors - pre.Engine.fresh_colors;
        repairs = post.Engine.repairs - pre.Engine.repairs;
        warm_removes = post.Engine.warm_removes - pre.Engine.warm_removes;
      }
  in
  record "engine/add_path/n=1600"
    [ ("n", 1600); ("paths", 1280) ]
    ~extras:[ ("warm_hit_rate", steady_rate) ]
    engine_step
    (Some (fun () -> Solver.solve grown1600));
  let engine_stats = Engine.stats session1600 in
  Printf.printf
    "  engine session: %d ops, warm hit rate %.3f, %d repairs, %d fallbacks, %d full solves\n"
    engine_stats.Engine.ops
    (Engine.hit_rate engine_stats)
    engine_stats.Engine.repairs engine_stats.Engine.fallbacks
    engine_stats.Engine.full_solves;
  (* Parallel sweep trajectory: instances/s of the thm1 validation sweep at
     increasing domain counts, through the dynamic-chunking engine. *)
  (* Per-point parallel.../sweep... counters ride along so the trajectory
     explains itself: seq_fallbacks/domains_clamped show when the engine
     refused to spawn, domain_busy_ns shows who actually worked.  Metrics
     stay on during the timed run — one atomic load per update, noise
     well under the seed-to-seed variance. *)
  let sweep_seeds = 400 in
  let trajectory =
    List.map
      (fun d ->
        Metrics.reset ();
        Metrics.set_enabled true;
        let t0 = Unix.gettimeofday () in
        let failures = Wl_validate.Sweeps.run ~domains:d ~seeds:sweep_seeds
            (List.assoc "thm1" Wl_validate.Sweeps.all)
        in
        let dt = Unix.gettimeofday () -. t0 in
        Metrics.set_enabled false;
        let prefixed p name =
          String.length name >= String.length p
          && String.sub name 0 (String.length p) = p
        in
        let counters =
          List.filter
            (fun (name, _) -> prefixed "parallel." name || prefixed "sweep." name)
            (Metrics.snapshot ())
        in
        Metrics.reset ();
        Printf.printf "  sweep/thm1 domains=%d %6d seeds %8.2fs %8.0f/s %s\n%!" d
          sweep_seeds dt
          (float_of_int sweep_seeds /. dt)
          (if failures = [] then "ok" else "FAILURES");
        (d, dt, failures = [], counters))
      (List.sort_uniq compare [ 1; 2; domains ])
  in
  let sweep_json =
    Jsonx.Arr
      (List.map
         (fun (d, dt, ok, counters) ->
           Jsonx.Obj
             [
               ("sweep", Jsonx.Str "thm1");
               ("domains", Jsonx.Int d);
               ("seeds", Jsonx.Int sweep_seeds);
               ("seconds", Jsonx.Float dt);
               ("ok", Jsonx.Bool ok);
               ( "counters",
                 Jsonx.Obj
                   (List.map
                      (fun (n, i) -> (n, Store.json_of_instrument i))
                      counters) );
             ])
         trajectory)
  in
  let entry =
    Store.make
      ~note:"bench/main.exe -- perf --json"
      ~extra:[ ("sweep_trajectory", sweep_json) ]
      ~domains (List.rev !points)
  in
  Store.write_file "BENCH_core.json" entry;
  Printf.printf
    "wrote BENCH_core.json (schema %s, rev %s, %d benches, %d trajectory \
     points)\n"
    Store.schema entry.Store.rev
    (List.length entry.Store.points)
    (List.length trajectory)

let run_tables () =
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode =
    match List.find_opt (fun a -> not (String.length a > 0 && a.[0] = '-')) args with
    | Some m -> m
    | None -> "all"
  in
  let json = List.mem "--json" args in
  let domains =
    let rec find = function
      | "--domains" :: v :: _ -> (
        match int_of_string_opt v with
        | Some d -> d
        | None ->
          prerr_endline ("bench: --domains expects an integer, got " ^ v);
          exit 2)
      | _ :: rest -> find rest
      | [] -> Wl_util.Parallel.default_domains ()
    in
    find args
  in
  (match mode with
  | "tables" -> run_tables ()
  | "perf" -> if json then run_perf_json ~domains () else run_perf ()
  | _ ->
    run_tables ();
    run_perf ());
  print_endline "bench: done"
