(* Tests for the digraph structure and its derived graphs. *)

open Helpers
open Wl_digraph
module Prng = Wl_util.Prng

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3 *)
  digraph_of_pairs 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_basic () =
  let g = diamond () in
  check_int "vertices" 4 (Digraph.n_vertices g);
  check_int "arcs" 4 (Digraph.n_arcs g);
  check_int "out degree" 2 (Digraph.out_degree g 0);
  check_int "in degree" 2 (Digraph.in_degree g 3);
  check "succ" true (Digraph.succ g 0 = [ 1; 2 ]);
  check "pred" true (Digraph.pred g 3 = [ 1; 2 ]);
  check "mem_arc" true (Digraph.mem_arc g 0 1);
  check "not mem_arc" false (Digraph.mem_arc g 1 0);
  check "find_arc id" true (Digraph.find_arc g 0 2 = Some 1);
  check "endpoints" true (Digraph.arc_endpoints g 2 = (1, 3));
  check "arcs list" true (Digraph.arcs g = [ (0, 1); (0, 2); (1, 3); (2, 3) ])

let test_rejections () =
  let g = diamond () in
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.add_arc: self-loop")
    (fun () -> ignore (Digraph.add_arc g 1 1));
  Alcotest.check_raises "duplicate" (Invalid_argument "Digraph.add_arc: duplicate arc")
    (fun () -> ignore (Digraph.add_arc g 0 1));
  Alcotest.check_raises "missing vertex" (Invalid_argument "Digraph: no such vertex")
    (fun () -> ignore (Digraph.add_arc g 0 9))

let test_labels () =
  let g = Digraph.create () in
  let a = Digraph.add_vertex ~label:"start" g in
  let b = Digraph.add_vertex g in
  check "explicit label" true (Digraph.label g a = "start");
  check "default label" true (Digraph.label g b = "v1");
  Digraph.set_label g b "end";
  check "set label" true (Digraph.label g b = "end");
  check "lookup" true (Digraph.vertex_of_label g "end" = Some b);
  check "lookup missing" true (Digraph.vertex_of_label g "nope" = None)

let test_reverse () =
  let g = diamond () in
  let r = Digraph.reverse g in
  check "reversed arcs" true
    (List.sort compare (Digraph.arcs r)
    = List.sort compare [ (1, 0); (2, 0); (3, 1); (3, 2) ]);
  check "double reverse" true (Digraph.equal_structure g (Digraph.reverse r))

let test_copy () =
  let g = diamond () in
  let c = Digraph.copy g in
  check "copy equal" true (Digraph.equal_structure g c);
  ignore (Digraph.add_arc c 3 0);
  check "copy independent" false (Digraph.equal_structure g c)

let test_induced () =
  let g = diamond () in
  let sub, mapping = Digraph.induced_subgraph g [ 0; 1; 3 ] in
  check_int "sub vertices" 3 (Digraph.n_vertices sub);
  check_int "sub arcs" 2 (Digraph.n_arcs sub);
  check "mapping" true (mapping = [| 0; 1; 3 |]);
  (* arcs 0->1 and 1->3 survive under new ids 0->1, 1->2 *)
  check "sub arc set" true
    (List.sort compare (Digraph.arcs sub) = [ (0, 1); (1, 2) ])

let random_roundtrip =
  qtest "of_arcs/arcs round trip" seed_gen (fun seed ->
      let g = gnp_dag seed 12 0.3 in
      let g' = digraph_of_pairs (Digraph.n_vertices g) (Digraph.arcs g) in
      Digraph.equal_structure g g')

let degrees_sum =
  qtest "degree sums equal arc count" seed_gen (fun seed ->
      let g = gnp_dag seed 15 0.25 in
      let sum f = List.fold_left (fun acc v -> acc + f g v) 0 (Digraph.vertices g) in
      sum Digraph.out_degree = Digraph.n_arcs g
      && sum Digraph.in_degree = Digraph.n_arcs g)

let out_arcs_consistent =
  qtest "out_arcs/in_arcs agree with endpoints" seed_gen (fun seed ->
      let g = gnp_dag seed 12 0.3 in
      List.for_all
        (fun v ->
          List.for_all (fun a -> Digraph.arc_src g a = v) (Digraph.out_arcs g v)
          && List.for_all (fun a -> Digraph.arc_dst g a = v) (Digraph.in_arcs g v))
        (Digraph.vertices g))

(* [of_arcs] builds what [add_arc] calls in id order build: the same
   rows, the same index; and the graph it builds keeps growing by
   [add_arc] past the index's first size. *)
let of_arcs_matches_add_arc =
  qtest "of_arcs matches add_arc, and grows by add_arc" seed_gen ~count:60 (fun seed ->
      let g = gnp_dag seed (2 + (seed mod 20)) 0.3 in
      let n = Digraph.n_vertices g in
      let src, dst = Digraph.arc_ends g in
      let bulk = Digraph.of_arcs n ~src ~dst in
      let inc = Digraph.create () in
      Digraph.add_vertices inc n;
      Digraph.iter_arcs (fun _ u v -> ignore (Digraph.add_arc inc u v)) g;
      let same a b =
        Digraph.arcs a = Digraph.arcs b
        && List.for_all
             (fun v ->
               Digraph.out_arcs a v = Digraph.out_arcs b v
               && Digraph.in_arcs a v = Digraph.in_arcs b v
               && Digraph.succ a v = Digraph.succ b v
               && Digraph.pred a v = Digraph.pred b v
               && Digraph.out_degree a v = Digraph.out_degree b v
               && Digraph.in_degree a v = Digraph.in_degree b v
               && List.for_all (fun w -> Digraph.find_arc a v w = Digraph.find_arc b v w) (Digraph.vertices a))
             (Digraph.vertices a)
      in
      let grown = same bulk inc in
      (* then every missing forward arc, through both *)
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if not (Digraph.mem_arc bulk u v) then begin
            ignore (Digraph.add_arc bulk u v);
            ignore (Digraph.add_arc inc u v)
          end
        done
      done;
      grown && same bulk inc)

let test_of_arcs_rejections () =
  let rejects msg ~src ~dst =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (Digraph.of_arcs 3 ~src ~dst))
  in
  rejects "Digraph: no such vertex" ~src:[| 0; 0 |] ~dst:[| 1; 3 |];
  rejects "Digraph.add_arc: self-loop" ~src:[| 0; 2 |] ~dst:[| 1; 2 |];
  rejects "Digraph.add_arc: duplicate arc" ~src:[| 0; 1; 0 |] ~dst:[| 1; 2; 1 |];
  (* the first offending arc decides, as with add_arc *)
  rejects "Digraph.add_arc: self-loop" ~src:[| 1; 0; 0 |] ~dst:[| 1; 1; 1 |];
  rejects "Digraph.of_arcs: src and dst lengths differ" ~src:[| 0 |] ~dst:[||];
  Alcotest.check_raises "negative count" (Invalid_argument "Digraph.of_arcs: negative vertex count")
    (fun () -> ignore (Digraph.of_arcs (-1) ~src:[||] ~dst:[||]))

let suite =
  [
    ( "digraph",
      [
        Alcotest.test_case "basics" `Quick test_basic;
        Alcotest.test_case "rejections" `Quick test_rejections;
        Alcotest.test_case "labels" `Quick test_labels;
        Alcotest.test_case "reverse" `Quick test_reverse;
        Alcotest.test_case "copy" `Quick test_copy;
        Alcotest.test_case "induced subgraph" `Quick test_induced;
        random_roundtrip;
        degrees_sum;
        out_arcs_consistent;
        of_arcs_matches_add_arc;
        Alcotest.test_case "of_arcs rejections" `Quick test_of_arcs_rejections;
      ] );
  ]
