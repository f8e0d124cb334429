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
  csr : csr;
  mutable arc_order : int array option;
      (* cache for [arcs_by_tail_topo]: a pure function of the dag, and
         every solver run starts by asking for it *)
}

(* Unchecked [Flat] access, defined here so it compiles to a single load
   or store rather than a call into [Flat]. *)
let ( .!() ) (a : Flat.t) i = Bigarray.Array1.unsafe_get a i
let ( .!()<- ) (a : Flat.t) i v = Bigarray.Array1.unsafe_set a i v

(* The slices of vertex [key.(a)] hold [other.(a)] and [a]: one counting
   sort over the arc ids.  Arcs are numbered in insertion order, so
   ascending arc ids within a slice reproduce [Digraph.out_arcs] /
   [Digraph.in_arcs] exactly. *)
let rows n key other =
  let m = Array.length key in
  let off = Flat.create (n + 1) and nbr = Flat.create m and arc = Flat.create m in
  for a = 0 to m - 1 do
    let v = key.(a) + 1 in
    off.!(v) <- off.!(v) + 1
  done;
  for v = 1 to n do
    off.!(v) <- off.!(v) + off.!(v - 1)
  done;
  (* [off.(v)] serves as the fill cursor of slice [v], which leaves it at
     the slice's end, the start of slice [v + 1]: shift back after. *)
  for a = 0 to m - 1 do
    let v = key.(a) in
    let s = off.!(v) in
    nbr.!(s) <- other.(a);
    arc.!(s) <- a;
    off.!(v) <- s + 1
  done;
  for v = n downto 1 do
    off.!(v) <- off.!(v - 1)
  done;
  off.!(0) <- 0;
  (off, nbr, arc)

(* Kahn's algorithm over the out-rows: a FIFO seeded with the sources in
   ascending id order, successors released in arc-id order — the order
   [Traversal.topological_order] produces.  The queue ends up holding the
   order itself; [None] when a cycle leaves vertices unreleased.  [indeg]
   is scratch of length [n]. *)
let kahn n ~out_off ~out_dst ~in_off ~indeg =
  let order = Flat.create n in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    let d = in_off.!(v + 1) - in_off.!(v) in
    indeg.!(v) <- d;
    if d = 0 then begin
      order.!(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = order.!(!head) in
    incr head;
    for s = out_off.!(v) to out_off.!(v + 1) - 1 do
      let w = out_dst.!(s) in
      let d = indeg.!(w) - 1 in
      indeg.!(w) <- d;
      if d = 0 then begin
        order.!(!tail) <- w;
        incr tail
      end
    done
  done;
  if !tail = n then Some order else None

let of_digraph g =
  let n = Digraph.n_vertices g and src, dst = Digraph.arc_ends g in
  let out_off, out_dst, out_arc = rows n src dst in
  let in_off, in_src, in_arc = rows n dst src in
  let pos = Flat.create n in
  match kahn n ~out_off ~out_dst ~in_off ~indeg:pos with
  | Some order ->
    for i = 0 to n - 1 do
      pos.!(order.!(i)) <- i
    done;
    Ok
      {
        g;
        csr = { out_off; out_dst; out_arc; in_off; in_src; in_arc; order; pos };
        arc_order = None;
      }
  | None ->
    let cycle =
      match Traversal.find_directed_cycle g with
      | Some c -> String.concat " -> " (List.map (Digraph.label g) c)
      | None -> "?"
    in
    Error (Printf.sprintf "not a DAG: directed cycle %s" cycle)

let graph d = d.g
let n_vertices d = Digraph.n_vertices d.g
let n_arcs d = Digraph.n_arcs d.g

let topological_order d = Flat.to_array d.csr.order
let topo_position d v = Flat.get d.csr.pos v
let compare_topo d u v = Int.compare (topo_position d u) (topo_position d v)

let topo_filter d keep = List.filter keep (Array.to_list (topological_order d))
let sources d = topo_filter d (fun v -> Digraph.in_degree d.g v = 0)
let sinks d = topo_filter d (fun v -> Digraph.out_degree d.g v = 0)

let longest_path_length d =
  let c = d.csr in
  let n = n_vertices d in
  let dist = Array.make n 0 in
  (* Process in reverse topological order: dist v = 1 + max over succ. *)
  for i = n - 1 downto 0 do
    let v = c.order.!(i) in
    for s = c.out_off.!(v) to c.out_off.!(v + 1) - 1 do
      let w = c.out_dst.!(s) in
      if dist.(w) + 1 > dist.(v) then dist.(v) <- dist.(w) + 1
    done
  done;
  Array.fold_left max 0 dist

let count_dipaths_from d v =
  let c = d.csr in
  let n = n_vertices d in
  let count = Array.make n Saturating.zero in
  count.(v) <- Saturating.one;
  for i = topo_position d v to n - 1 do
    let u = c.order.!(i) in
    if not (Saturating.equal count.(u) Saturating.zero) then
      for s = c.out_off.!(u) to c.out_off.!(u + 1) - 1 do
        let w = c.out_dst.!(s) in
        count.(w) <- Saturating.add count.(w) count.(u)
      done
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
      let n = n_vertices d and pos = d.csr.pos and src, _ = Digraph.arc_ends d.g in
      let m = Array.length src in
      let cnt = Array.make (n + 1) 0 in
      for a = 0 to m - 1 do
        let p = pos.!(src.(a)) in
        cnt.(p + 1) <- cnt.(p + 1) + 1
      done;
      for p = 1 to n do
        cnt.(p) <- cnt.(p) + cnt.(p - 1)
      done;
      let out = Array.make m 0 in
      for a = 0 to m - 1 do
        let p = pos.!(src.(a)) in
        out.(cnt.(p)) <- a;
        cnt.(p) <- cnt.(p) + 1
      done;
      d.arc_order <- Some out;
      out
  in
  (* Callers own their copy; the cache must stay pristine. *)
  Array.copy order

let csr d = d.csr
