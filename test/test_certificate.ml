(* Tests for the report auditor. *)

open Helpers
open Wl_core
module Prng = Wl_util.Prng

let audits_clean =
  qtest "solver reports audit clean across generators" seed_gen ~count:60
    (fun seed ->
      let rng = Prng.create seed in
      let dag =
        match seed mod 4 with
        | 0 -> Wl_netgen.Generators.gnp_dag rng 12 0.25
        | 1 -> Wl_netgen.Generators.gnp_no_internal_cycle rng 14 0.25
        | 2 -> Wl_netgen.Generators.upp_one_internal_cycle rng ()
        | _ -> Wl_netgen.Generators.upp_internal_cycles rng ~cycles:2 ()
      in
      let inst = Wl_netgen.Path_gen.random_instance rng dag 10 in
      Certificate.audit inst (Solver.solve inst) = [])

let test_audits_figures () =
  List.iter
    (fun inst ->
      match Certificate.audit inst (Solver.solve inst) with
      | [] -> ()
      | issues -> Alcotest.failf "audit failed: %s" (String.concat "; " issues))
    [
      Wl_netgen.Figures.fig3 ();
      Wl_netgen.Figures.fig1 4;
      Wl_netgen.Figures.fig5 3;
      Wl_netgen.Figures.havet 2;
    ]

let test_detects_tampering () =
  let inst = Wl_netgen.Figures.fig3 () in
  let r = Solver.solve inst in
  let tampered_assignment =
    let a = Array.copy r.Solver.assignment in
    a.(0) <- a.(1);
    { r with Solver.assignment = a }
  in
  check "conflict detected" true (Certificate.audit inst tampered_assignment <> []);
  let tampered_pi = { r with Solver.pi = r.Solver.pi + 1 } in
  check "pi detected" true (Certificate.audit inst tampered_pi <> []);
  let tampered_count = { r with Solver.n_wavelengths = r.Solver.n_wavelengths + 1 } in
  check "count detected" true (Certificate.audit inst tampered_count <> []);
  let tampered_method = { r with Solver.method_used = Solver.Theorem_1 } in
  check "method misuse detected" true (Certificate.audit inst tampered_method <> [])

let suite =
  [
    ( "certificate",
      [
        audits_clean;
        Alcotest.test_case "paper figures" `Quick test_audits_figures;
        Alcotest.test_case "detects tampering" `Quick test_detects_tampering;
      ] );
  ]
