open Wl_digraph
module Saturating = Wl_util.Saturating
module Flat = Wl_util.Flat

type csr = {
  out_off : Flat.t;
  out_dst : Flat.t;
  out_arc : Flat.t;
  in_off : Flat.t;
  in_src : Flat.t;
  in_arc : Flat.t;
  order : Flat.t;
  pos : Flat.t;
}

type t = {
  g : Digraph.t;
  topo : Digraph.vertex array;
  pos : int array;
  mutable arc_order : int array option;
      (* cache for [arcs_by_tail_topo]: a pure function of the dag, and
         every solver run starts by asking for it *)
  mutable csr : csr option;
      (* cache for [csr]: built on first use; two domains racing to fill
         it build equal values, so either write may win *)
}

let of_digraph g =
  match Traversal.topological_order g with
  | Some order ->
    let topo = Array.of_list order in
    let pos = Array.make (Digraph.n_vertices g) 0 in
    Array.iteri (fun i v -> pos.(v) <- i) topo;
    Ok { g; topo; pos; arc_order = None; csr = None }
  | None ->
    let cycle =
      match Traversal.find_directed_cycle g with
      | Some c -> String.concat " -> " (List.map (Digraph.label g) c)
      | None -> "?"
    in
    Error (Printf.sprintf "not a DAG: directed cycle %s" cycle)

let of_digraph_exn g =
  match of_digraph g with Ok d -> d | Error msg -> invalid_arg msg

let graph d = d.g
let n_vertices d = Digraph.n_vertices d.g
let n_arcs d = Digraph.n_arcs d.g

let topological_order d = Array.copy d.topo
let topo_position d v = d.pos.(v)
let compare_topo d u v = Int.compare d.pos.(u) d.pos.(v)

let sources d =
  Array.to_list d.topo |> List.filter (fun v -> Digraph.in_degree d.g v = 0)

let sinks d =
  Array.to_list d.topo |> List.filter (fun v -> Digraph.out_degree d.g v = 0)

let longest_path_length d =
  let n = n_vertices d in
  let dist = Array.make n 0 in
  (* Process in reverse topological order: dist v = 1 + max over succ. *)
  for i = n - 1 downto 0 do
    let v = d.topo.(i) in
    List.iter
      (fun w -> if dist.(w) + 1 > dist.(v) then dist.(v) <- dist.(w) + 1)
      (Digraph.succ d.g v)
  done;
  Array.fold_left max 0 dist

let count_dipaths_from d v =
  let n = n_vertices d in
  let count = Array.make n Saturating.zero in
  count.(v) <- Saturating.one;
  for i = d.pos.(v) to n - 1 do
    let u = d.topo.(i) in
    if not (Saturating.equal count.(u) Saturating.zero) then
      List.iter
        (fun w -> count.(w) <- Saturating.add count.(w) count.(u))
        (Digraph.succ d.g u)
  done;
  count

let count_dipaths d src dst = (count_dipaths_from d src).(dst)

let some_dipath d src dst =
  if src = dst then None
  else
    match Traversal.bfs_parent_path d.g src dst with
    | None -> None
    | Some verts -> Some (Dipath.make d.g verts)

let all_dipaths_between ?(limit = 64) d src dst =
  if src = dst then []
  else begin
    let reaches_dst = Traversal.reaching_to d.g dst in
    let out = ref [] in
    let found = ref 0 in
    let rec go prefix v =
      if !found < limit then
        if v = dst then begin
          incr found;
          out := Dipath.make d.g (List.rev (v :: prefix)) :: !out
        end
        else
          List.iter
            (fun w -> if reaches_dst.(w) then go (v :: prefix) w)
            (Digraph.succ d.g v)
    in
    go [] src;
    List.rev !out
  end

let arcs_by_tail_topo d =
  let order =
    match d.arc_order with
    | Some order -> order
    | None ->
      (* Counting sort on tail positions (stable, so arc ids stay ascending
         within a position).  The polymorphic tuple sort this replaces
         dominated entire Theorem 1 solve runs at n >= 1000. *)
      let m = n_arcs d and n = n_vertices d in
      let cnt = Array.make (n + 1) 0 in
      for a = 0 to m - 1 do
        let p = d.pos.(Digraph.arc_src d.g a) in
        cnt.(p + 1) <- cnt.(p + 1) + 1
      done;
      for p = 1 to n do
        cnt.(p) <- cnt.(p) + cnt.(p - 1)
      done;
      let out = Array.make m 0 in
      for a = 0 to m - 1 do
        let p = d.pos.(Digraph.arc_src d.g a) in
        out.(cnt.(p)) <- a;
        cnt.(p) <- cnt.(p) + 1
      done;
      d.arc_order <- Some out;
      out
  in
  (* Callers own their copy; the cache must stay pristine. *)
  Array.copy order

(* Each direction is one counting sort over the arc ids.  Arcs are
   numbered in insertion order and every adjacency [Vec] is appended in
   that order, so ascending arc ids within a slice reproduce
   [Digraph.out_arcs] / [Digraph.in_arcs] exactly. *)
let build_csr d =
  let n = n_vertices d and m = n_arcs d in
  (* Slices keyed by [key a], holding the neighbour [other a]. *)
  let rows key other =
    let off = Array.make (n + 1) 0 and nbr = Array.make m 0 and arc = Array.make m 0 in
    for a = 0 to m - 1 do
      let v = key a in
      off.(v + 1) <- off.(v + 1) + 1
    done;
    for v = 1 to n do
      off.(v) <- off.(v) + off.(v - 1)
    done;
    let next = Array.sub off 0 n in
    for a = 0 to m - 1 do
      let v = key a in
      nbr.(next.(v)) <- other a;
      arc.(next.(v)) <- a;
      next.(v) <- next.(v) + 1
    done;
    (Flat.of_array off, Flat.of_array nbr, Flat.of_array arc)
  in
  let out_off, out_dst, out_arc = rows (Digraph.arc_src d.g) (Digraph.arc_dst d.g) in
  let in_off, in_src, in_arc = rows (Digraph.arc_dst d.g) (Digraph.arc_src d.g) in
  {
    out_off;
    out_dst;
    out_arc;
    in_off;
    in_src;
    in_arc;
    order = Flat.of_array d.topo;
    pos = Flat.of_array d.pos;
  }

let csr d =
  match d.csr with
  | Some c -> c
  | None ->
    let c = build_csr d in
    d.csr <- Some c;
    c
