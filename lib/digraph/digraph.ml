module Vec = Wl_util.Vec

type vertex = int
type arc = int

(* Arc index: open addressing with linear probing over two int arrays,
   keyed by [key u v], kept at most two-thirds full.  No allocation per arc,
   and a lookup is a multiply and (almost always) one probe. *)
type index = {
  mutable keys : int array; (* -1: empty slot *)
  mutable vals : arc array;
  mutable bits : int; (* Array.length keys = 1 lsl bits *)
}

(* One direction's adjacency, threaded through int vectors: the arcs of
   vertex [v] are [last.(v)], [prev.(last.(v))], ... down to -1, newest
   first.  Appending an arc is three stores, and building from arrays
   allocates no block per vertex. *)
type rows = {
  last : arc Vec.t; (* per vertex: its newest arc, -1 if none *)
  prev : arc Vec.t; (* per arc: the next older arc of the same vertex, or -1 *)
  deg : int Vec.t; (* per vertex *)
}

type t = {
  src : vertex Vec.t; (* per arc *)
  dst : vertex Vec.t;
  out_rows : rows; (* keyed by tail *)
  in_rows : rows; (* keyed by head *)
  labels : string option Vec.t;
  index : index;
}

let key u v = (u * 0x40000000) + v

(* Fibonacci hashing: the top [bits] bits of the product. *)
let slot bits k = (k * 0x1E3779B97F4A7C15) lsr (63 - bits)

let index_create m =
  let bits = ref 3 in
  while 2 lsl !bits < 3 * m do
    incr bits
  done;
  let size = 1 lsl !bits in
  { keys = Array.make size (-1); vals = Array.make size 0; bits = !bits }

(* The slot holding [k], or the empty slot where it would go. *)
let rec probe keys mask k i =
  let x = Array.unsafe_get keys i in
  if x = k || x < 0 then i else probe keys mask k ((i + 1) land mask)

let index_slot ix k = probe ix.keys ((1 lsl ix.bits) - 1) k (slot ix.bits k)

let index_find ix k =
  let i = index_slot ix k in
  if Array.unsafe_get ix.keys i = k then Array.unsafe_get ix.vals i else -1

let index_set ix i k a =
  ix.keys.(i) <- k;
  ix.vals.(i) <- a

(* Room for a [count + 1]-th key. *)
let index_reserve ix ~count =
  if 3 * (count + 1) > 2 lsl ix.bits then begin
    let keys = ix.keys and vals = ix.vals in
    ix.bits <- ix.bits + 1;
    ix.keys <- Array.make (1 lsl ix.bits) (-1);
    ix.vals <- Array.make (1 lsl ix.bits) 0;
    Array.iteri (fun i k -> if k >= 0 then index_set ix (index_slot ix k) k vals.(i)) keys
  end

let rows_create () = { last = Vec.create (); prev = Vec.create (); deg = Vec.create () }

let create () =
  {
    src = Vec.create ();
    dst = Vec.create ();
    out_rows = rows_create ();
    in_rows = rows_create ();
    labels = Vec.create ();
    index = index_create 0;
  }

let n_vertices g = Vec.length g.labels
let n_arcs g = Vec.length g.src

let no_vertex () = invalid_arg "Digraph: no such vertex"

let check_vertex g v = if v < 0 || v >= n_vertices g then no_vertex ()

let add_vertex ?label g =
  let v = n_vertices g in
  List.iter
    (fun r ->
      Vec.push r.last (-1);
      Vec.push r.deg 0)
    [ g.out_rows; g.in_rows ];
  Vec.push g.labels label;
  v

let add_vertices g k =
  for _ = 1 to k do
    ignore (add_vertex g)
  done

let find_arc g u v =
  check_vertex g u;
  check_vertex g v;
  match index_find g.index (key u v) with -1 -> None | a -> Some a

let mem_arc g u v = find_arc g u v <> None

(* Indexes [u -> v] as arc [a] after the checks of [add_arc], in its
   order; [n] is the vertex count.  The index must have room. *)
let index_arc ix n u v a =
  if u < 0 || u >= n || v < 0 || v >= n then no_vertex ();
  if u = v then invalid_arg "Digraph.add_arc: self-loop";
  let k = key u v in
  let i = index_slot ix k in
  if Array.unsafe_get ix.keys i = k then invalid_arg "Digraph.add_arc: duplicate arc";
  index_set ix i k a

let append r v a =
  Vec.push r.prev (Vec.get r.last v);
  Vec.set r.last v a;
  Vec.set r.deg v (Vec.get r.deg v + 1)

let add_arc g u v =
  let a = n_arcs g in
  index_reserve g.index ~count:a;
  index_arc g.index (n_vertices g) u v a;
  Vec.push g.src u;
  Vec.push g.dst v;
  append g.out_rows u a;
  append g.in_rows v a;
  a

(* The rows keyed by [ends], arc [a] the one at vertex [ends.(a)]. *)
let rows n ends =
  let last = Array.make n (-1) and prev = Array.make (Array.length ends) 0 in
  let deg = Array.make n 0 in
  for a = 0 to Array.length ends - 1 do
    let v = ends.(a) in
    prev.(a) <- last.(v);
    last.(v) <- a;
    deg.(v) <- deg.(v) + 1
  done;
  { last = Vec.of_array last; prev = Vec.of_array prev; deg = Vec.of_array deg }

let of_arcs ?labels n ~src ~dst =
  let m = Array.length src in
  if n < 0 then invalid_arg "Digraph.of_arcs: negative vertex count";
  if Array.length dst <> m then invalid_arg "Digraph.of_arcs: src and dst lengths differ";
  let labels =
    match labels with
    | None -> Array.make n None
    | Some ls ->
      if Array.length ls <> n then invalid_arg "Digraph.of_arcs: labels length";
      Array.map Option.some ls
  in
  let index = index_create m in
  for a = 0 to m - 1 do
    index_arc index n src.(a) dst.(a) a
  done;
  {
    src = Vec.of_array src;
    dst = Vec.of_array dst;
    out_rows = rows n src;
    in_rows = rows n dst;
    labels = Vec.of_array labels;
    index;
  }

let check_arc_id g a = if a < 0 || a >= n_arcs g then invalid_arg "Digraph: no such arc"

let arc_src g a =
  check_arc_id g a;
  Vec.get g.src a

let arc_dst g a =
  check_arc_id g a;
  Vec.get g.dst a

let arc_endpoints g a = (arc_src g a, arc_dst g a)

let arc_ends g = (Vec.to_array g.src, Vec.to_array g.dst)

let degree r g v =
  check_vertex g v;
  Vec.get r.deg v

let out_degree g v = degree g.out_rows g v
let in_degree g v = degree g.in_rows g v

(* [f a] for the arcs of [v], oldest first: walked newest first, consed. *)
let map_row f r g v =
  check_vertex g v;
  let rec go a acc = if a < 0 then acc else go (Vec.get r.prev a) (f a :: acc) in
  go (Vec.get r.last v) []

let out_arcs g v = map_row Fun.id g.out_rows g v
let in_arcs g v = map_row Fun.id g.in_rows g v
let succ g v = map_row (Vec.get g.dst) g.out_rows g v
let pred g v = map_row (Vec.get g.src) g.in_rows g v

let arcs g = List.init (n_arcs g) (fun a -> (Vec.get g.src a, Vec.get g.dst a))

let vertices g = List.init (n_vertices g) Fun.id

let label g v =
  check_vertex g v;
  match Vec.get g.labels v with
  | Some l -> l
  | None -> Printf.sprintf "v%d" v

let set_label g v l =
  check_vertex g v;
  Vec.set g.labels v (Some l)

let vertex_of_label g l =
  let n = n_vertices g in
  let rec go v =
    if v >= n then None
    else
      match Vec.get g.labels v with
      | Some l' when String.equal l l' -> Some v
      | _ -> go (v + 1)
  in
  go 0

let iter_vertices f g =
  for v = 0 to n_vertices g - 1 do
    f v
  done

let iter_arcs f g =
  for a = 0 to n_arcs g - 1 do
    f a (Vec.get g.src a) (Vec.get g.dst a)
  done

let fold_arcs f g init =
  let acc = ref init in
  iter_arcs (fun a u v -> acc := f a u v !acc) g;
  !acc

(* [g]'s arcs rebuilt by [of_arcs] (ends swapped when [flip]), with its
   labels, unset ones included. *)
let rebuild ~flip g =
  let src, dst = arc_ends g in
  let src, dst = if flip then (dst, src) else (src, dst) in
  let g' = of_arcs (n_vertices g) ~src ~dst in
  Vec.iteri (Vec.set g'.labels) g.labels;
  g'

let copy g = rebuild ~flip:false g
let reverse g = rebuild ~flip:true g

let induced_subgraph g vs =
  let n = n_vertices g in
  let old_to_new = Array.make n (-1) in
  let kept = Vec.create () in
  List.iter
    (fun v ->
      check_vertex g v;
      if old_to_new.(v) = -1 then begin
        old_to_new.(v) <- Vec.length kept;
        Vec.push kept v
      end)
    vs;
  let g' = create () in
  Vec.iter
    (fun v ->
      ignore
        (match Vec.get g.labels v with
        | Some l -> add_vertex ~label:l g'
        | None -> add_vertex g'))
    kept;
  iter_arcs
    (fun _ u v ->
      if old_to_new.(u) >= 0 && old_to_new.(v) >= 0 then
        ignore (add_arc g' old_to_new.(u) old_to_new.(v)))
    g;
  (g', Vec.to_array kept)

let equal_structure g1 g2 =
  n_vertices g1 = n_vertices g2
  && n_arcs g1 = n_arcs g2
  && List.sort compare (arcs g1) = List.sort compare (arcs g2)

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph: %d vertices, %d arcs@," (n_vertices g)
    (n_arcs g);
  iter_arcs
    (fun a u v -> Format.fprintf ppf "  #%d: %s -> %s@," a (label g u) (label g v))
    g;
  Format.fprintf ppf "@]"
