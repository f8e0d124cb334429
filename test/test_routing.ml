(* Tests for request routing. *)

open Helpers
open Wl_core
open Wl_digraph
module Dag = Wl_dag.Dag
module Prng = Wl_util.Prng
module Generators = Wl_netgen.Generators

let test_route_shortest_is_shortest () =
  (* 0 -> 1 -> 4 (2 hops) vs 0 -> 2 -> 3 -> 4 (3 hops).  Regression for the
     old delegation to Dag.some_dipath, whose contract is "any dipath": the
     hop count is pinned. *)
  let g = digraph_of_pairs 5 [ (0, 1); (1, 4); (0, 2); (2, 3); (3, 4) ] in
  let dag = dag_of_digraph g in
  match Routing.route_shortest dag [ (0, 4) ] with
  | Ok [ p ] -> check_int "two hops" 2 (Dipath.n_arcs p)
  | _ -> Alcotest.fail "routing failed"

let test_shortest_is_lex_smallest () =
  (* Two 2-hop routes 0->3->4 and 0->1->4; arc insertion order puts 3 before
     1 in the adjacency list, but shortest_dipath must still pick the
     lexicographically smaller vertex sequence 0,1,4. *)
  let g = digraph_of_pairs 5 [ (0, 3); (3, 4); (0, 1); (1, 4) ] in
  let dag = dag_of_digraph g in
  match Routing.shortest_dipath dag 0 4 with
  | Some p -> check "lex smallest" true (Dipath.vertices p = [ 0; 1; 4 ])
  | None -> Alcotest.fail "routable"

let astring_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_unroutable_reported () =
  let g = digraph_of_pairs 3 [ (0, 1) ] in
  let dag = dag_of_digraph g in
  (match Routing.route_shortest dag [ (0, 1); (1, 2) ] with
  | Error (Error.Invalid_path msg as e) ->
    check "names the position" true
      (astring_contains msg "position 1" && astring_contains msg "(1, 2)");
    check_int "Invalid_path exit code" 67 (Error.exit_code e)
  | Error _ -> Alcotest.fail "wrong error constructor"
  | Ok _ -> Alcotest.fail "should be unroutable");
  match Routing.instance_of dag Routing.route_shortest [ (0, 1); (1, 0) ] with
  | Error (Error.Invalid_path _) -> ()
  | Error _ -> Alcotest.fail "wrong error constructor"
  | Ok _ -> Alcotest.fail "should fail end to end"

let test_min_load_spreads () =
  (* Two parallel two-hop routes; four identical requests must split 2/2,
     keeping the load at 2 instead of 4. *)
  let g = digraph_of_pairs 6 [ (0, 1); (1, 5); (0, 2); (2, 5); (0, 3); (3, 5) ] in
  let dag = dag_of_digraph g in
  let requests = List.init 6 (fun _ -> (0, 5)) in
  match Routing.instance_of dag Routing.route_min_load requests with
  | Error e -> Alcotest.failf "routing failed: %s" (Error.to_string e)
  | Ok inst -> check_int "balanced load" 2 (Load.pi inst)

let shortest_really_shortest =
  qtest "route_shortest matches BFS distance" seed_gen ~count:30 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.gnp_dag rng 14 0.25 in
      let g = Dag.graph dag in
      let pairs = Wl_dag.Upp.routable_pairs dag in
      match Routing.route_shortest dag pairs with
      | Error _ -> false
      | Ok paths ->
        List.for_all2
          (fun (x, _) p ->
            let dist = Traversal.bfs_dist g x in
            Dipath.n_arcs p = dist.(Dipath.dst p))
          pairs paths)

let min_load_routes_everything =
  qtest "min-load routing is total and deterministic" seed_gen ~count:25
    (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.layered rng ~layers:4 ~width:4 ~p:0.5 in
      let requests = Routing.random_requests rng dag 20 in
      match
        ( Routing.instance_of dag Routing.route_min_load requests,
          Routing.instance_of dag Routing.route_min_load requests )
      with
      | Ok m1, Ok m2 ->
        Instance.n_paths m1 = List.length requests
        && List.equal Dipath.equal (Instance.paths_list m1) (Instance.paths_list m2)
      | _ -> false)

(* On a hotspot topology the load-aware router must beat blind shortest
   paths: many requests whose unique shortest route shares one arc, while a
   one-hop-longer detour exists. *)
let test_min_load_beats_shortest_on_hotspot () =
  (* 0 -> 1 -> 5 (short) and 0 -> 2 -> 3 -> 5 / 0 -> 4 -> ... detours. *)
  let g =
    digraph_of_pairs 7
      [ (0, 1); (1, 6); (0, 2); (2, 3); (3, 6); (0, 4); (4, 5); (5, 6) ]
  in
  let dag = dag_of_digraph g in
  let requests = List.init 6 (fun _ -> (0, 6)) in
  match
    ( Routing.instance_of dag Routing.route_shortest requests,
      Routing.instance_of dag Routing.route_min_load requests )
  with
  | Ok s, Ok m ->
    check_int "shortest hotspots" 6 (Load.pi s);
    check_int "min-load spreads to 2" 2 (Load.pi m)
  | _ -> Alcotest.fail "routing failed"

(* --- the routing stage: bottleneck seed, k-shortest, select ------------- *)

let path_bottleneck load p =
  List.fold_left (fun acc a -> max acc load.(a)) 0 (Dipath.arcs p)

(* bottleneck_path against brute force: on DAGs small enough to enumerate
   every dipath, its bottleneck must equal the true minimum over all
   dipaths (the hop component is a tie-break heuristic, not a guarantee —
   one label per vertex cannot certify hop-minimality). *)
let bottleneck_matches_brute_force =
  qtest "bottleneck_path equals brute-force min-bottleneck" seed_gen ~count:60
    (fun seed ->
      let rng = Prng.create seed in
      let n = 4 + Prng.int rng 5 in
      let dag = Generators.gnp_dag rng n 0.4 in
      let g = Dag.graph dag in
      let m = Digraph.n_arcs g in
      let load = Array.init (max 1 m) (fun _ -> Prng.int rng 5) in
      List.for_all
        (fun (x, y) ->
          let all = Dag.all_dipaths_between ~limit:10_000 dag x y in
          let best =
            List.fold_left
              (fun acc p ->
                let b = path_bottleneck load p in
                match acc with Some b' when b' <= b -> acc | _ -> Some b)
              None all
          in
          match (Routing.bottleneck_path dag load x y, best) with
          | Some p, Some b -> path_bottleneck load p = b
          | None, None -> true
          | _ -> false)
        (Wl_dag.Upp.routable_pairs dag))

(* k-shortest: duplicate-free, sorted by (hops, lex vertex sequence), and
   complete once k reaches the number of dipaths. *)
let k_shortest_enumeration =
  qtest "k_shortest is sorted, duplicate-free, complete" seed_gen ~count:60
    (fun seed ->
      let rng = Prng.create seed in
      let n = 4 + Prng.int rng 5 in
      let dag = Generators.gnp_dag rng n 0.45 in
      List.for_all
        (fun (x, y) ->
          let all = Dag.all_dipaths_between ~limit:10_000 dag x y in
          let total = List.length all in
          let ks = Routing.k_shortest ~k:(total + 3) dag x y in
          let sorted =
            let rec go = function
              | a :: (b :: _ as rest) ->
                Routing.compare_route a b < 0 && go rest
              | _ -> true
            in
            go ks
          in
          let complete =
            List.length ks = total
            && List.for_all
                 (fun p -> List.exists (Dipath.equal p) ks)
                 all
          in
          let prefix =
            (* a smaller k returns exactly the first few of the full list *)
            let k = 1 + Prng.int rng (total + 1) in
            let small = Routing.k_shortest ~k dag x y in
            List.length small = min k total
            && List.for_all2 Dipath.equal small
                 (List.filteri (fun i _ -> i < min k total) ks)
          in
          sorted && complete && prefix)
        (Wl_dag.Upp.routable_pairs dag))

(* select: the local search never worsens the greedy seed, the
   packing-number-style lower bound holds, and the reported max_load is the
   true load of the chosen family. *)
let select_invariants =
  qtest "select: lb <= max_load <= seed_load = pi-consistent" seed_gen
    ~count:40 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.gnp_dag rng 12 0.3 in
      let requests = Routing.random_requests rng dag 16 in
      if requests = [] then true
      else
        match Routing.select ~k:4 dag requests with
        | Error _ -> false
        | Ok sel ->
          let inst = Routing.instance_of_selection dag sel in
          sel.Routing.max_load <= sel.Routing.seed_load
          && sel.Routing.lower_bound <= sel.Routing.max_load
          && Load.pi inst = sel.Routing.max_load
          && sel.Routing.lower_bound <= (Solver.solve inst).Solver.n_wavelengths)

let test_select_beats_seed_on_hotspot () =
  (* Three disjoint 0->6 routes; six identical requests.  The greedy seed
     already balances (bottleneck Dijkstra), so instead force a detour
     decision: requests between interior vertices that the seed routes
     through the shared fast arc, and check select reaches the optimum 2. *)
  let g =
    digraph_of_pairs 7
      [ (0, 1); (1, 6); (0, 2); (2, 3); (3, 6); (0, 4); (4, 5); (5, 6) ]
  in
  let dag = dag_of_digraph g in
  let requests = List.init 6 (fun _ -> (0, 6)) in
  match Routing.select ~k:4 dag requests with
  | Error e -> Alcotest.failf "select failed: %s" (Error.to_string e)
  | Ok sel ->
    check_int "optimal spread" 2 sel.Routing.max_load;
    check_int "matches lower bound" sel.Routing.lower_bound
      sel.Routing.max_load;
    check "never worse than seed" true
      (sel.Routing.max_load <= sel.Routing.seed_load)

let test_select_nonpositive_k () =
  let g = digraph_of_pairs 3 [ (0, 1); (1, 2) ] in
  let dag = dag_of_digraph g in
  List.iter
    (fun k ->
      match Routing.select ~k dag [ (0, 2) ] with
      | Error (Error.Precondition _ as e) ->
        check_int "Precondition exit code" 70 (Error.exit_code e)
      | Error e -> Alcotest.failf "k = %d: wrong error %s" k (Error.to_string e)
      | Ok _ -> Alcotest.failf "k = %d accepted" k)
    [ 0; -1 ];
  check "k_shortest with k = 0 is empty" true (Routing.k_shortest ~k:0 dag 0 2 = [])

let test_select_bad_index () =
  let g = digraph_of_pairs 3 [ (0, 1); (1, 2) ] in
  let dag = dag_of_digraph g in
  match Routing.select dag [ (0, 7) ] with
  | Error (Error.Bad_index { index = 7; _ } as e) ->
    check_int "Bad_index exit code" 68 (Error.exit_code e)
  | _ -> Alcotest.fail "expected Bad_index"

let test_lower_bound_forced_arc () =
  (* A bridge arc every request must cross: volume bound is 1 but the
     forced-arc bound sees all three requests. *)
  let g = digraph_of_pairs 6 [ (0, 2); (1, 2); (2, 3); (3, 4); (3, 5) ] in
  let dag = dag_of_digraph g in
  check_int "forced bridge" 3
    (Routing.lower_bound dag [ (0, 4); (1, 5); (0, 5) ])

(* --- reference implementations -----------------------------------------

   The routing kernels sweep the dag's topological order over its flat
   adjacency.  These are the straightforward formulations they must
   agree with exactly, route for route: a label-setting Dijkstra with
   linear-scan extraction for the bottleneck seed, Yen's algorithm with a
   whole-graph reverse BFS and explicit banned-vertex/banned-arc sets for
   k-shortest, and per-endpoint BFS / path-count tables for the lower
   bound.  Adjacency comes from [Digraph]'s lists. *)

module Ref = struct
  module Saturating = Wl_util.Saturating

  let bottleneck_path d load src dst =
    let g = Dag.graph d in
    let n = Digraph.n_vertices g in
    let inf = (max_int, max_int) in
    let dist = Array.make n inf in
    let parent = Array.make n (-1) in
    let settled = Array.make n false in
    dist.(src) <- (0, 0);
    let rec loop () =
      let best = ref (-1) in
      for v = 0 to n - 1 do
        if (not settled.(v)) && dist.(v) < inf
           && (!best = -1 || dist.(v) < dist.(!best))
        then best := v
      done;
      if !best >= 0 then begin
        let v = !best in
        settled.(v) <- true;
        if v <> dst then begin
          List.iter
            (fun a ->
              let w = Digraph.arc_dst g a in
              let bott, hops = dist.(v) in
              let cand = (max bott load.(a), hops + 1) in
              if cand < dist.(w) then begin
                dist.(w) <- cand;
                parent.(w) <- v
              end)
            (Digraph.out_arcs g v);
          loop ()
        end
      end
    in
    loop ();
    if src = dst || dist.(dst) = inf then None
    else begin
      let rec build v acc =
        if v = src then v :: acc else build parent.(v) (v :: acc)
      in
      Some (Dipath.make g (build dst []))
    end

  let rev_dist g ~banned_v ~banned_a dst =
    let dist = Array.make (Digraph.n_vertices g) (-1) in
    dist.(dst) <- 0;
    let queue = Queue.create () in
    Queue.add dst queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun a ->
          let u = Digraph.arc_src g a in
          if (not banned_a.(a)) && (not banned_v.(u)) && dist.(u) < 0 then begin
            dist.(u) <- dist.(v) + 1;
            Queue.add u queue
          end)
        (Digraph.in_arcs g v)
    done;
    dist

  let restricted_shortest g ~banned_v ~banned_a src dst =
    if src = dst then None
    else begin
      let dist = rev_dist g ~banned_v ~banned_a dst in
      if dist.(src) < 0 then None
      else begin
        let rec walk v acc =
          if v = dst then List.rev (v :: acc)
          else begin
            let best = ref (-1) in
            List.iter
              (fun a ->
                let w = Digraph.arc_dst g a in
                if
                  (not banned_a.(a)) && (not banned_v.(w)) && dist.(w) >= 0
                  && dist.(w) = dist.(v) - 1
                  && (!best < 0 || w < !best)
                then best := w)
              (Digraph.out_arcs g v);
            walk !best (v :: acc)
          end
        in
        Some (Array.of_list (walk src []))
      end
    end

  let compare_vseq (a : int array) b =
    let c = compare (Array.length a) (Array.length b) in
    if c <> 0 then c else compare a b

  let k_shortest ~k d src dst =
    let g = Dag.graph d in
    let n = Digraph.n_vertices g and m = max 1 (Digraph.n_arcs g) in
    let banned_v = Array.make n false and banned_a = Array.make m false in
    match restricted_shortest g ~banned_v ~banned_a src dst with
    | None -> []
    | Some p0 ->
      let accepted = ref [ p0 ] and candidates = ref [] in
      let seen c l = List.exists (fun x -> compare_vseq x c = 0) l in
      let rec grow last =
        if List.length !accepted < k then begin
          for j = 0 to Array.length last - 2 do
            Array.fill banned_v 0 n false;
            Array.fill banned_a 0 m false;
            for t = 0 to j - 1 do
              banned_v.(last.(t)) <- true
            done;
            List.iter
              (fun p ->
                if Array.length p > j + 1 && Array.sub p 0 (j + 1) = Array.sub last 0 (j + 1)
                then
                  match Digraph.find_arc g p.(j) p.(j + 1) with
                  | Some a -> banned_a.(a) <- true
                  | None -> ())
              !accepted;
            match restricted_shortest g ~banned_v ~banned_a last.(j) dst with
            | None -> ()
            | Some tail ->
              let c = Array.append (Array.sub last 0 j) tail in
              if not (seen c !candidates || seen c !accepted) then
                candidates := c :: !candidates
          done;
          match List.sort compare_vseq !candidates with
          | [] -> ()
          | best :: rest ->
            candidates := rest;
            accepted := best :: !accepted;
            grow best
        end
      in
      grow p0;
      List.rev_map (fun v -> Dipath.make g (Array.to_list v)) !accepted

  let lower_bound d requests =
    let g = Dag.graph d in
    let n = Digraph.n_vertices g and m = Digraph.n_arcs g in
    if requests = [] || m = 0 then 0
    else begin
      let ok (x, y) = x >= 0 && x < n && y >= 0 && y < n && x <> y in
      let cached tbl f x =
        match Hashtbl.find_opt tbl x with
        | Some v -> v
        | None ->
          let v = f x in
          Hashtbl.add tbl x v;
          v
      in
      let dist = cached (Hashtbl.create 8) (Traversal.bfs_dist g) in
      let fwd = cached (Hashtbl.create 8) (Dag.count_dipaths_from d) in
      let order = Dag.topological_order d in
      let rev =
        cached (Hashtbl.create 8) (fun y ->
            let gc = Array.make n Saturating.zero in
            gc.(y) <- Saturating.one;
            for i = n - 1 downto 0 do
              let v = order.(i) in
              if v <> y then
                List.iter
                  (fun w -> gc.(v) <- Saturating.add gc.(v) gc.(w))
                  (Digraph.succ g v)
            done;
            gc)
      in
      let hops =
        List.fold_left
          (fun acc ((x, y) as r) ->
            if ok r && (dist x).(y) > 0 then acc + (dist x).(y) else acc)
          0 requests
      in
      let forced = Array.make m 0 in
      List.iter
        (fun ((x, y) as r) ->
          if ok r then begin
            let f = fwd x in
            let total = f.(y) in
            if Saturating.to_int total > 0 && not (Saturating.is_saturated total)
            then
              Digraph.iter_arcs
                (fun a u v ->
                  if Saturating.equal (Saturating.mul f.(u) (rev y).(v)) total then
                    forced.(a) <- forced.(a) + 1)
                g
          end)
        requests;
      max ((hops + m - 1) / m) (Array.fold_left max 0 forced)
    end

  (* The routing stage as it ran before it counted dipaths first: Yen for
     every request, then the bottleneck seed, the local search with the
     objective recomputed from the loads, and the bound last. *)
  let select ?(max_rounds = 64) ~k d requests =
    let g = Dag.graph d in
    let n = Digraph.n_vertices g and m = Digraph.n_arcs g in
    let reqs = Array.of_list requests in
    let nr = Array.length reqs in
    let unroutable i (x, y) =
      Error.Invalid_path
        (Printf.sprintf "request (%d, %d) (position %d) is not routable" x y i)
    in
    let bad =
      List.find_map
        (fun (x, y) ->
          if x < 0 || x >= n then
            Some (Error.Bad_index { what = "request source vertex"; index = x })
          else if y < 0 || y >= n then
            Some (Error.Bad_index { what = "request destination vertex"; index = y })
          else None)
        requests
    in
    let rec enumerate i acc =
      if i = nr then Ok (Array.of_list (List.rev acc))
      else
        let x, y = reqs.(i) in
        match k_shortest ~k d x y with
        | [] -> Error (unroutable i (x, y))
        | l -> enumerate (i + 1) (Array.of_list l :: acc)
    in
    if k <= 0 then
      Error (Error.Precondition (Printf.sprintf "select: k = %d, need k >= 1" k))
    else
      match bad with
      | Some e -> Error e
      | None -> (
        match enumerate 0 [] with
        | Error e -> Error e
        | Ok alts ->
          let load = Array.make (max 1 m) 0 in
          let charge p delta =
            List.iter (fun a -> load.(a) <- load.(a) + delta) (Dipath.arcs p)
          in
          let chosen =
            Array.mapi
              (fun i (x, y) ->
                let p = Option.get (bottleneck_path d load x y) in
                let j =
                  match
                    List.find_opt
                      (fun j -> Dipath.arcs alts.(i).(j) = Dipath.arcs p)
                      (List.init (Array.length alts.(i)) Fun.id)
                  with
                  | Some j -> j
                  | None ->
                    alts.(i) <- Array.append alts.(i) [| p |];
                    Array.length alts.(i) - 1
                in
                charge alts.(i).(j) 1;
                j)
              reqs
          in
          let objective () =
            let top = Array.fold_left max 0 load in
            (top, Array.fold_left (fun c l -> if l = top then c + 1 else c) 0 load)
          in
          let seed_load = fst (objective ()) in
          let swaps = ref 0 and rounds = ref 0 and improved = ref true in
          while !improved && !rounds < max_rounds do
            improved := false;
            incr rounds;
            Array.iteri
              (fun i a ->
                Array.iteri
                  (fun j pj ->
                    if j <> chosen.(i) then begin
                      let before = objective () in
                      charge a.(chosen.(i)) (-1);
                      charge pj 1;
                      if objective () < before then begin
                        chosen.(i) <- j;
                        incr swaps;
                        improved := true
                      end
                      else begin
                        charge pj (-1);
                        charge a.(chosen.(i)) 1
                      end
                    end)
                  a)
              alts
          done;
          Ok
            Routing.
              {
                requests = reqs;
                routes = Array.mapi (fun i a -> a.(chosen.(i))) alts;
                k;
                n_alternatives = Array.fold_left (fun c a -> c + Array.length a) 0 alts;
                seed_load;
                max_load = fst (objective ());
                lower_bound = lower_bound d requests;
                swaps = !swaps;
                rounds = !rounds;
              })
end

let same_routes ps qs = List.equal Dipath.equal ps qs

let same_route p q =
  match (p, q) with
  | Some p, Some q -> Dipath.equal p q
  | None, None -> true
  | _ -> false

(* Every ordered pair of the dag, unreachable ones and x = x included. *)
let all_pairs d =
  let n = Dag.n_vertices d in
  List.concat (List.init n (fun x -> List.init n (fun y -> (x, y))))

(* Half the graphs have internal cycles, half none; loads from {0, 1, 2}
   make bottleneck ties the common case. *)
let diff_dag rng =
  let n = 5 + Prng.int rng 10 in
  let p = 0.15 +. Prng.float rng 0.35 in
  if Prng.bool rng then Generators.gnp_dag rng n p
  else Generators.gnp_no_internal_cycle rng n p

let bottleneck_matches_reference =
  qtest "bottleneck_path = label-setting Dijkstra, route for route" seed_gen
    ~count:80 (fun seed ->
      let rng = Prng.create seed in
      let dag = diff_dag rng in
      let load = Array.init (max 1 (Dag.n_arcs dag)) (fun _ -> Prng.int rng 3) in
      List.for_all
        (fun (x, y) ->
          same_route (Routing.bottleneck_path dag load x y)
            (Ref.bottleneck_path dag load x y))
        (all_pairs dag))

(* The seed as select runs it: each route's arcs are charged before the
   next request is routed, so the loads are the ones the kernel meets. *)
let seed_sequence_matches_reference =
  qtest "bottleneck seeding sequence = reference under charged loads" seed_gen
    ~count:60 (fun seed ->
      let rng = Prng.create seed in
      let dag = diff_dag rng in
      let requests = Routing.random_requests rng dag 30 in
      let load = Array.make (max 1 (Dag.n_arcs dag)) 0 in
      List.for_all
        (fun (x, y) ->
          let p = Routing.bottleneck_path dag load x y in
          let ok = same_route p (Ref.bottleneck_path dag load x y) in
          Option.iter
            (fun p -> List.iter (fun a -> load.(a) <- load.(a) + 1) (Dipath.arcs p))
            p;
          ok)
        requests)

let k_shortest_matches_reference =
  qtest "k_shortest = list-based Yen, route for route" seed_gen ~count:60
    (fun seed ->
      let rng = Prng.create seed in
      let dag = diff_dag rng in
      let k = 1 + Prng.int rng 6 in
      List.for_all
        (fun (x, y) ->
          same_routes (Routing.k_shortest ~k dag x y) (Ref.k_shortest ~k dag x y))
        (all_pairs dag))

let lower_bound_matches_reference =
  qtest "lower_bound = per-endpoint table bound" seed_gen ~count:80 (fun seed ->
      let rng = Prng.create seed in
      let dag = diff_dag rng in
      let n = Dag.n_vertices dag in
      (* unreachable pairs, x = x and out-of-range vertices included *)
      let requests =
        List.init (1 + Prng.int rng 25) (fun _ ->
            (Prng.int rng (n + 1), Prng.int rng (n + 1)))
      in
      Routing.lower_bound dag requests = Ref.lower_bound dag requests)

let same_selection a b =
  let open Routing in
  a.requests = b.requests
  && Array.length a.routes = Array.length b.routes
  && Array.for_all2 Dipath.equal a.routes b.routes
  && a.k = b.k
  && a.n_alternatives = b.n_alternatives
  && a.seed_load = b.seed_load
  && a.max_load = b.max_load
  && a.lower_bound = b.lower_bound
  && a.swaps = b.swaps
  && a.rounds = b.rounds

let same_select_result a b =
  match (a, b) with
  | Ok a, Ok b -> same_selection a b
  | Error e, Error f -> e = f
  | _ -> false

(* Routable requests, and in half the cases one that is not — an
   unreachable pair, a routable pair reversed, or x = x — at a random
   position, so both the selection and the first-unroutable error are
   compared. *)
let select_matches_reference =
  qtest "select = Yen-for-every-request pipeline, field for field" seed_gen
    ~count:60 (fun seed ->
      let rng = Prng.create seed in
      let dag = diff_dag rng in
      let n = Dag.n_vertices dag in
      let requests = Routing.random_requests rng dag (1 + Prng.int rng 20) in
      let requests =
        if requests = [] || Prng.bool rng then requests
        else begin
          let x, y = List.nth requests (Prng.int rng (List.length requests)) in
          let bad =
            match Prng.int rng 3 with
            | 0 ->
              let u = Prng.int rng n and v = Prng.int rng n in
              if Dag.count_dipaths dag u v = Wl_util.Saturating.zero then (u, v) else (y, x)
            | 1 -> (y, x)
            | _ -> (x, x)
          in
          let at = Prng.int rng (List.length requests + 1) in
          List.filteri (fun i _ -> i < at) requests
          @ (bad :: List.filteri (fun i _ -> i >= at) requests)
        end
      in
      let k = 1 + Prng.int rng 5 in
      same_select_result (Routing.select ~k dag requests) (Ref.select ~k dag requests))

(* A reversed request right after its routable twin: the dipath count of
   (b, a) must come from its own sweep, not from the sweep before it. *)
let test_select_reversed_after_routable () =
  let g = digraph_of_pairs 3 [ (0, 1); (1, 2) ] in
  let dag = dag_of_digraph g in
  let requests = [ (0, 2); (2, 0) ] in
  (match Routing.select dag requests with
  | Error (Error.Invalid_path msg) ->
    check "names position 1" true
      (astring_contains msg "position 1" && astring_contains msg "(2, 0)")
  | Error e -> Alcotest.failf "wrong error %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "(2, 0) is not routable");
  check "reference agrees" true
    (same_select_result (Routing.select dag requests) (Ref.select ~k:8 dag requests))

(* Two complete layered blocks joined by one bridge arc: across the
   bridge the dipath counts pass Saturating.cap, so those totals read as
   "nothing forced" while short requests around the bridge are forced
   through it. *)
let test_lower_bound_saturated () =
  let width = 4 and layers = 34 in
  let g = Digraph.create () in
  let block () =
    let v = Array.init layers (fun _ -> Array.init width (fun _ -> Digraph.add_vertex g)) in
    for l = 0 to layers - 2 do
      Array.iter (fun u -> Array.iter (fun w -> ignore (Digraph.add_arc g u w)) v.(l + 1)) v.(l)
    done;
    v
  in
  let a = block () and b = block () in
  ignore (Digraph.add_arc g a.(layers - 1).(0) b.(0).(0));
  let dag = dag_of_digraph g in
  let far = (a.(0).(0), b.(layers - 1).(0)) in
  let near = (a.(layers - 1).(0), b.(1).(2)) in
  check "far total saturates" true
    (Wl_util.Saturating.is_saturated (Dag.count_dipaths dag (fst far) (snd far)));
  let requests = [ far; far; far; near; (a.(layers - 2).(1), b.(0).(0)) ] in
  let lb = Routing.lower_bound dag requests in
  check_int "reference agrees" (Ref.lower_bound dag requests) lb;
  check_int "saturated requests are not counted as forced" 2 lb;
  check_int "alone they force nothing" 1 (Routing.lower_bound dag [ far; far; far ])

let test_requests_roundtrip () =
  let reqs = [ (0, 5); (2, 7); (2, 7) ] in
  (match Routing.requests_of_string (Routing.requests_to_string reqs) with
  | Ok r -> check "roundtrip" true (r = reqs)
  | Error _ -> Alcotest.fail "roundtrip failed");
  (match Routing.requests_of_string "req 1 2 # tail comment\n\nreq 3 4\n" with
  | Ok r -> check "comments and blanks" true (r = [ (1, 2); (3, 4) ])
  | Error _ -> Alcotest.fail "lenient parse failed");
  (match Routing.requests_of_string "wlreq 1\nreq 0 nope\n" with
  | Error (Error.Parse { line = 2; _ }) -> ()
  | _ -> Alcotest.fail "expected Parse at line 2");
  match Routing.requests_of_string "wlreq 9\n" with
  | Error (Error.Unsupported_version 9) -> ()
  | _ -> Alcotest.fail "expected Unsupported_version"

let test_unique_on_upp () =
  let rng = Prng.create 3 in
  let dag = Generators.gnp_upp rng 12 0.3 in
  let pairs = Routing.all_to_all dag in
  match Routing.route_unique dag pairs with
  | Error e -> Alcotest.failf "routing failed: %s" (Error.to_string e)
  | Ok paths ->
    check_int "one per pair" (List.length pairs) (List.length paths);
    List.iter2
      (fun (x, y) p ->
        check "endpoints" true (Dipath.src p = x && Dipath.dst p = y))
      pairs paths

let test_multicast () =
  let g = digraph_of_pairs 5 [ (0, 1); (0, 2); (1, 3) ] in
  let dag = dag_of_digraph g in
  check "multicast requests" true
    (List.sort compare (Routing.multicast dag 0) = [ (0, 1); (0, 2); (0, 3) ]);
  check "multicast from leaf" true (Routing.multicast dag 4 = [])

(* Tree-routed multicast achieves w = pi on ANY DAG, because its routes
   live on a rooted tree (Theorem 1 applies). *)
let multicast_tree_equality =
  qtest "tree-routed multicast: w = pi on any DAG" seed_gen ~count:40
    (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.gnp_dag rng 14 0.3 in
      let root = Prng.int rng 14 in
      let paths = Routing.route_multicast_tree dag root in
      match paths with
      | [] -> true
      | _ ->
        let inst = Instance.make dag paths in
        (* Routes form an out-tree: every vertex reached by exactly one
           route suffix, so the union of arcs is a tree and Theorem 1
           colors optimally. *)
        let a = Theorem1.color inst in
        Assignment.is_valid inst a
        && Assignment.n_wavelengths (Assignment.normalize a) = Load.pi inst)

let test_multicast_tree_counts () =
  let g = digraph_of_pairs 6 [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ] in
  let dag = dag_of_digraph g in
  let paths = Routing.route_multicast_tree dag 0 in
  check_int "one route per reachable vertex" 4 (List.length paths);
  List.iter (fun p -> check_int "starts at root" 0 (Dipath.src p)) paths;
  check "leaf multicast empty" true (Routing.route_multicast_tree dag 4 = []);
  (* All routes use only tree arcs: at most one in-arc used per vertex. *)
  let used_in = Hashtbl.create 8 in
  List.iter
    (fun p ->
      List.iter
        (fun a ->
          let dst = Digraph.arc_dst g a in
          match Hashtbl.find_opt used_in dst with
          | None -> Hashtbl.add used_in dst a
          | Some a' -> check "single in-arc per vertex" true (a = a'))
        (Dipath.arcs p))
    paths

let test_random_requests_routable () =
  let rng = Prng.create 8 in
  let dag = Generators.gnp_dag rng 12 0.3 in
  let reqs = Routing.random_requests rng dag 25 in
  check_int "count" 25 (List.length reqs);
  match Routing.route_shortest dag reqs with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "random request unroutable: %s" (Error.to_string e)

(* Multicast instances satisfy w = pi on any digraph (the paper cites
   Beauquier-Hell-Perennes); with our machinery this follows from Theorem 1
   when there is no internal cycle, and we verify it exactly on small
   multicast instances in general. *)
let multicast_w_equals_pi =
  qtest "multicast families have w = pi (small, exact)" seed_gen ~count:20
    (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.gnp_dag rng 9 0.3 in
      let root = Prng.int rng 9 in
      let reqs = Routing.multicast dag root in
      if List.length reqs = 0 || List.length reqs > 14 then true
      else
        match Routing.instance_of dag Routing.route_shortest reqs with
        | Error _ -> false
        | Ok inst -> Bounds.chromatic_exact inst = Load.pi inst)

let suite =
  [
    ( "routing",
      [
        Alcotest.test_case "shortest is shortest" `Quick test_route_shortest_is_shortest;
        Alcotest.test_case "shortest is lex smallest" `Quick
          test_shortest_is_lex_smallest;
        Alcotest.test_case "unroutable reported" `Quick test_unroutable_reported;
        Alcotest.test_case "min-load spreads" `Quick test_min_load_spreads;
        shortest_really_shortest;
        min_load_routes_everything;
        Alcotest.test_case "min-load beats shortest on hotspot" `Quick
          test_min_load_beats_shortest_on_hotspot;
        bottleneck_matches_brute_force;
        k_shortest_enumeration;
        select_invariants;
        Alcotest.test_case "select reaches hotspot optimum" `Quick
          test_select_beats_seed_on_hotspot;
        Alcotest.test_case "select rejects bad vertex" `Quick
          test_select_bad_index;
        Alcotest.test_case "select rejects k <= 0" `Quick
          test_select_nonpositive_k;
        bottleneck_matches_reference;
        seed_sequence_matches_reference;
        k_shortest_matches_reference;
        lower_bound_matches_reference;
        select_matches_reference;
        Alcotest.test_case "select: reversed request after its twin" `Quick
          test_select_reversed_after_routable;
        Alcotest.test_case "lower bound with saturated counts" `Quick
          test_lower_bound_saturated;
        Alcotest.test_case "lower bound sees forced arc" `Quick
          test_lower_bound_forced_arc;
        Alcotest.test_case "request file roundtrip" `Quick
          test_requests_roundtrip;
        Alcotest.test_case "unique routing on UPP" `Quick test_unique_on_upp;
        Alcotest.test_case "multicast" `Quick test_multicast;
        multicast_tree_equality;
        Alcotest.test_case "multicast tree routing" `Quick test_multicast_tree_counts;
        Alcotest.test_case "random requests routable" `Quick
          test_random_requests_routable;
        multicast_w_equals_pi;
      ] );
  ]
