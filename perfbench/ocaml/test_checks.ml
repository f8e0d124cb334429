(* The benchmark's answer checks must fire on wrong answers: a wavelength
   count above the load, a route for the wrong request, a broken bracket,
   a served reply that differs from the bare-engine replay. *)

open Wl_core
open Perfbench
module Proto = Wl_serve.Proto

let fires issues = Alcotest.(check bool) "check fires" true (issues <> [])
let holds issues = Alcotest.(check (list string)) "no issues" [] issues

let routed () =
  let rng = Wl_util.Prng.create 7 in
  let dag = Wl_netgen.Generators.gnp_no_internal_cycle rng 40 0.15 in
  let requests = Wl_netgen.Traffic.uniform rng dag 12 in
  let sel = Result.get_ok (Routing.select ~k:3 dag requests) in
  let inst = Routing.instance_of_selection dag sel in
  (dag, requests, sel, inst, Solver.solve inst)

let route_right () =
  let dag, requests, sel, inst, report = routed () in
  holds (Checks.route ~dag ~requests ~sel ~inst ~report)

let route_w_above_pi () =
  let dag, requests, sel, inst, report = routed () in
  let report = { report with Solver.n_wavelengths = report.Solver.pi + 1 } in
  fires (Checks.route ~dag ~requests ~sel ~inst ~report)

let route_wrong_route () =
  let dag, requests, sel, inst, report = routed () in
  let routes = Array.copy sel.Routing.routes in
  let ends r = (Wl_digraph.Dipath.src r, Wl_digraph.Dipath.dst r) in
  let j = ref 1 in
  while ends routes.(!j) = ends routes.(0) do incr j done;
  routes.(0) <- sel.Routing.routes.(!j);
  fires (Checks.route ~dag ~requests ~sel:{ sel with Routing.routes } ~inst ~report)

let route_bracket () =
  let dag, requests, sel, inst, report = routed () in
  let sel = { sel with Routing.lower_bound = sel.Routing.max_load + 1 } in
  fires (Checks.route ~dag ~requests ~sel ~inst ~report)

let served_reports () =
  let _, _, _, inst, report = routed () in
  let r = Proto.report_of_solver report in
  holds (Checks.w_equals_pi ~what:"t" r);
  holds (Checks.resolve ~what:"t" ~snapshot:inst r);
  fires (Checks.w_equals_pi ~what:"t" { r with Proto.n_wavelengths = r.Proto.pi + 1 });
  fires (Checks.resolve ~what:"t" ~snapshot:inst { r with Proto.pi = r.Proto.pi + 1 })

let same_reply () =
  let _, _, _, inst, _ = routed () in
  let tenant = "t" in
  let eng = Replay.create () in
  ignore (Replay.apply eng (Proto.Open { tenant; instance = inst }));
  let rep = Replay.apply eng (Proto.Report { tenant }) in
  let wrong =
    match rep with
    | Ok (Proto.R_report r) -> Ok (Proto.R_report { r with Proto.n_wavelengths = r.Proto.n_wavelengths + 1 })
    | x -> x
  in
  Alcotest.(check bool) "replay agrees with itself" true (Checks.same_reply rep (Replay.apply eng (Proto.Report { tenant })));
  Alcotest.(check bool) "wrong report differs" false (Checks.same_reply rep wrong);
  Alcotest.(check bool) "error differs" false (Checks.same_reply rep (Replay.apply eng (Proto.Report { tenant = "u" })))

let ops_sent () =
  let s = Wl_engine.Engine.create (Instance.make (Wl_netgen.Generators.random_rooted_tree (Wl_util.Prng.create 1) 8) []) in
  ignore (Wl_engine.Engine.add_path s [ 0; 1 ]);
  let st = Wl_engine.Engine.stats s in
  holds (Checks.ops_sent ~what:"t" ~sent:st.Wl_engine.Engine.ops st);
  fires (Checks.ops_sent ~what:"t" ~sent:(st.Wl_engine.Engine.ops + 1) st)

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "route right answer holds" `Quick route_right;
          Alcotest.test_case "route w above pi fires" `Quick route_w_above_pi;
          Alcotest.test_case "route wrong route fires" `Quick route_wrong_route;
          Alcotest.test_case "route broken bracket fires" `Quick route_bracket;
          Alcotest.test_case "served report w/pi/re-solve" `Quick served_reports;
          Alcotest.test_case "reply differs from replay" `Quick same_reply;
          Alcotest.test_case "daemon op count" `Quick ops_sent;
        ] );
    ]
