open Wl_digraph
module Dag = Wl_dag.Dag
module Upp = Wl_dag.Upp
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace
module Clock = Wl_obs.Clock
module Saturating = Wl_util.Saturating
module Flat = Wl_util.Flat

type request = Digraph.vertex * Digraph.vertex

(* routing.* instruments: all gated on Metrics.set_enabled, so the stage
   costs one atomic load per update when observability is off. *)
let c_requests = Metrics.counter "routing.requests"
let c_unroutable = Metrics.counter "routing.unroutable"
let c_swaps = Metrics.counter "routing.swaps"
let c_rounds = Metrics.counter "routing.rounds"
let h_alternatives = Metrics.histogram "routing.alternatives"
let l_select = Metrics.latency "routing.select.ns"

let unroutable ?index (x, y) =
  let where =
    match index with
    | None -> ""
    | Some i -> Printf.sprintf " (position %d)" i
  in
  Error.Invalid_path
    (Printf.sprintf "request (%d, %d)%s is not routable" x y where)

let check_request n _i (x, y) =
  if x < 0 || x >= n then
    Error (Error.Bad_index { what = "request source vertex"; index = x })
  else if y < 0 || y >= n then
    Error (Error.Bad_index { what = "request destination vertex"; index = y })
  else Ok ()

let collect_routes route requests =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | ((x, y) as r) :: rest -> (
      match route i r with
      | Some p -> go (i + 1) (p :: acc) rest
      | None ->
        Metrics.incr c_unroutable;
        Error (unroutable ~index:i (x, y)))
  in
  go 0 [] requests

(* --- per-call scratch ---------------------------------------------------------

   Only vertices at topological positions [pos src .. pos dst] of the
   dag's flat adjacency ({!Dag.csr}) can lie on a src-dst dipath, and the
   kernels below visit no other.  Their working arrays live in one record
   that each public entry point allocates for itself (select: once for
   all its requests), so the module holds no mutable state of its own
   and two domains may route over one dag at once.  Every sweep takes a
   fresh epoch, and a vertex is labelled in it iff [mark] holds that
   epoch: nothing is cleared between sweeps.  The forward sweeps (seed,
   bound) visit the positions they reach through [front], a frontier of
   one bit per position, and touch only the vertices they reach. *)

(* Positions per frontier word: 62 keeps every bit below the sign bit. *)
let bits = 62

type scratch = {
  c : Dag.csr;
  mutable epoch : int;
  mark : Flat.t;
  hops : Flat.t;  (* hops from the source (seed, bound) or to it (spur) *)
  bott : Flat.t;  (* seed: bottleneck load *)
  front : Flat.t;  (* seed, bound: the frontier, 62 positions a word *)
  queue : Flat.t;  (* spur: BFS queue; bound: the forward sweep's visits *)
  path : Flat.t;  (* spur: the route under construction *)
  fwd : Saturating.t array;  (* bound: #dipaths from x *)
  rev : Saturating.t array;  (* bound: #dipaths to y *)
  forced : int array;  (* bound: per arc, #requests forced through it *)
}

(* Only the tables of the kernels the caller runs are allocated, so a
   one-shot public call does not pay for select's whole set.  The
   per-vertex tables are [Flat], off the OCaml heap: on a 1600-vertex
   network, the major-GC work that n-word heap arrays cost a single
   [bottleneck_path] call exceeded its sweep several times over. *)
let scratch ?(seed = false) ?(spur = false) ?(bound = false) d =
  let n = max 1 (Dag.n_vertices d) and m = max 1 (Dag.n_arcs d) in
  let flat on = Flat.create (if on then n else 0) in
  let words = if seed || bound then (n + bits - 1) / bits else 0 in
  let counts on =
    if on then Array.make n Saturating.zero (* alloc-ok: per-call scratch *) else [||]
  in
  {
    c = Dag.csr d;
    epoch = 0;
    mark = flat true;
    hops = flat true;
    bott = flat seed;
    front = Flat.create words;
    queue = flat (spur || bound);
    path = flat spur;
    fwd = counts bound;
    rev = counts bound;
    forced = (if bound then Array.make m 0 (* alloc-ok: per-call scratch *) else [||]);
  }

(* Unchecked [Flat] access, defined here so it compiles to a single load
   or store in the sweeps below rather than a call into [Flat]. *)
let ( .!() ) (a : Flat.t) i = Bigarray.Array1.unsafe_get a i
let ( .!()<- ) (a : Flat.t) i v = Bigarray.Array1.unsafe_set a i v

(* Positions of the endpoints a kernel is called with go through the
   checked read, so a vertex outside the dag raises [Invalid_argument];
   every other index comes out of the CSR tables. *)
let pos (c : Dag.csr) v = c.pos.!(v)
let pos_checked (c : Dag.csr) v = Flat.get c.pos v
let at (c : Dag.csr) i = c.order.!(i)

let next_epoch scr =
  scr.epoch <- scr.epoch + 1;
  scr.epoch

(* --- the frontier ------------------------------------------------------------

   A forward sweep from [src] visits the positions it has reached in
   increasing order: it pops the lowest set bit of [scr.front] (skip the
   zero words, then count trailing zeros) and, as every arc leads to a
   higher position, pushes only above it.  So the word cursor never moves
   back, the sweep costs O(range / 62 + reached vertices + their arcs),
   and it leaves the frontier empty for the next one.  Pushes stop short
   of the sweep's last position, which is labelled but never expanded.
   Both sweeps write the pop loop out: an iterator taking the vertex
   visit as a closure would allocate that closure per request. *)

(* Count trailing zeros by de Bruijn multiplication: the top six bits of
   the 63-bit product of [0x03f79d71b4cb0a89] with each of the 62
   single-bit words are distinct, and [ctz_of] maps them back.  Defined
   here rather than in [Bitset] so that it inlines into the sweeps. *)
let de_bruijn = 0x03f79d71b4cb0a89

let ctz_of =
  let t = Array.make 64 0 (* alloc-ok: module init *) in
  for k = 0 to bits - 1 do
    t.(((1 lsl k) * de_bruijn) lsr 57) <- k
  done;
  t

let[@inline] ctz word = Array.unsafe_get ctz_of (((word land -word) * de_bruijn) lsr 57)

let[@inline] push (front : Flat.t) p =
  let w = p / bits in
  front.!(w) <- front.!(w) lor (1 lsl (p - (w * bits)))

(* The route in [scr.path.(0 .. len)], as a vertex array and a dipath. *)
let path_array scr len = Array.init (len + 1) (fun i -> scr.path.!(i)) (* alloc-ok: output *)
let route_of d scr len = Dipath.of_vertex_array (Dag.graph d) (path_array scr len)

let route_buffers len =
  (Array.make (len + 1) 0 (* alloc-ok: output *), Array.make len 0 (* alloc-ok: output *))

(* --- hop-count-shortest, deterministic -------------------------------------

   Distance-to-destination by reverse BFS, then a greedy forward walk
   always taking the smallest-numbered next vertex that stays on a
   shortest path: among all minimum-hop dipaths this constructs the
   lexicographically smallest vertex sequence, independent of adjacency
   order.  With [banned] heads, the arcs from [spur] to them are skipped:
   the spur routine of Yen's algorithm below, whose banned arcs all leave
   the spur vertex.  (Yen also bans the root path's vertices; in a DAG
   they all precede the spur vertex, outside the swept range.)

   [spur_dist] labels vertices at positions [>= pos spur] and stops once
   [spur] itself is labelled: BFS has by then labelled every vertex
   closer to [dst], which is all the walk reads. *)

let spur_dist scr ~banned spur dst =
  let c = scr.c and ep = next_epoch scr in
  let mark = scr.mark and hops = scr.hops and queue = scr.queue in
  let ps = pos c spur in
  mark.!(dst) <- ep;
  hops.!(dst) <- 0;
  queue.!(0) <- dst;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail && mark.!(spur) <> ep do
    let v = queue.!(!head) in
    incr head;
    let hv = hops.!(v) + 1 in
    for s = c.in_off.!(v) to c.in_off.!(v + 1) - 1 do
      let u = c.in_src.!(s) in
      if
        mark.!(u) <> ep
        && pos c u >= ps
        && not (u = spur && List.mem v banned)
      then begin
        mark.!(u) <- ep;
        hops.!(u) <- hv;
        queue.!(!tail) <- u;
        incr tail
      end
    done
  done;
  if mark.!(spur) = ep then hops.!(spur) else -1

(* After [spur_dist], write the walk into [scr.path.(from ..)]. *)
let lex_walk scr ~banned spur dst from =
  let c = scr.c and ep = scr.epoch in
  let v = ref spur and k = ref from in
  scr.path.!(from) <- spur;
  while !v <> dst do
    let want = scr.hops.!(!v) - 1 in
    let best = ref max_int in
    for s = c.out_off.!(!v) to c.out_off.!(!v + 1) - 1 do
      let w = c.out_dst.!(s) in
      if
        w < !best
        && scr.mark.!(w) = ep
        && scr.hops.!(w) = want
        && not (!v = spur && List.mem w banned)
      then best := w
    done;
    incr k;
    scr.path.!(!k) <- !best;
    v := !best
  done

(* The lex-smallest shortest route into [scr.path]; its arc count, or -1. *)
let shortest_into scr src dst =
  if pos_checked scr.c dst <= pos_checked scr.c src then -1
  else begin
    let len = spur_dist scr ~banned:[] src dst in
    if len >= 0 then lex_walk scr ~banned:[] src dst 0;
    len
  end

let shortest_dipath d src dst =
  let scr = scratch ~spur:true d in
  let len = shortest_into scr src dst in
  if len < 0 then None else Some (route_of d scr len)

let route_unique d requests =
  collect_routes (fun _ (x, y) -> Upp.unique_dipath d x y) requests

let route_shortest d requests =
  let scr = scratch ~spur:true d in
  collect_routes
    (fun _ (x, y) ->
      let len = shortest_into scr x y in
      if len < 0 then None else Some (route_of d scr len))
    requests

(* --- lexicographic (bottleneck load, hop count) labels ----------------------

   label(src) = (0, 0) and, for every other vertex w reachable from src,

     label(w) = min over in-arcs (u, a) of (max bott(u) load(a), hops(u) + 1)

   in lexicographic order.  These are exactly the labels a label-setting
   Dijkstra settles: every extension is strictly larger than the label
   it extends, so each vertex is settled after all its reachable
   in-neighbours and keeps the minimum of their extensions.  (The labels
   are not isotone, so they need not be the lexicographic optimum over
   whole dipaths; the bottleneck component is.)  On a DAG one sweep in
   topological order computes them, pushing along the out-arcs of the
   labelled vertices only.  The route is rebuilt backwards from dst; at
   each vertex the parent is, among the in-neighbours attaining its
   label, the one smallest by (label, vertex id) — the one a linear-scan
   Dijkstra settles first, and so the one it records. *)

(* The labels of [src]'s sweep; the hop count of [dst]'s, or -1 when
   [dst] is unreachable. *)
let seed_labels scr load src dst =
  let c = scr.c in
  let ps = pos_checked c src and pd = pos_checked c dst in
  if pd <= ps then -1
  else begin
    let ep = next_epoch scr in
    let mark = scr.mark and bott = scr.bott and hops = scr.hops in
    let front = scr.front in
    mark.!(src) <- ep;
    bott.!(src) <- 0;
    hops.!(src) <- 0;
    push front ps;
    let cur = ref (ps / bits) and last = (pd - 1) / bits in
    while !cur <= last do
      let word = front.!(!cur) in
      if word = 0 then incr cur
      else begin
        front.!(!cur) <- word land (word - 1);
        let u = at c ((!cur * bits) + ctz word) in
        let bu = bott.!(u) and h = hops.!(u) + 1 in
        for s = c.out_off.!(u) to c.out_off.!(u + 1) - 1 do
          let w = c.out_dst.!(s) in
          let pw = pos c w in
          if pw <= pd then begin
            let l = load.(c.out_arc.!(s)) in
            let b = if l > bu then l else bu in
            if mark.!(w) <> ep then begin
              mark.!(w) <- ep;
              bott.!(w) <- b;
              hops.!(w) <- h;
              if pw < pd then push front pw
            end
            else if b < bott.!(w) || (b = bott.!(w) && h < hops.!(w)) then begin
              bott.!(w) <- b;
              hops.!(w) <- h
            end
          end
        done
      end
    done;
    if mark.!(dst) = ep then hops.!(dst) else -1
  end

(* After [seed_labels] returned [len >= 0]: the route into
   [verts.(0 .. len)] and its arcs into [arcs.(0 .. len - 1)]. *)
let seed_route scr load dst len verts arcs =
  let c = scr.c and ep = scr.epoch in
  let mark = scr.mark and bott = scr.bott and hops = scr.hops in
  let v = ref dst in
  for k = len downto 1 do
    let w = !v in
    verts.(k) <- w;
    let best = ref (-1) and best_arc = ref (-1) in
    for s = c.in_off.!(w) to c.in_off.!(w + 1) - 1 do
      let u = c.in_src.!(s) in
      if mark.!(u) = ep && hops.!(u) = k - 1 then begin
        let a = c.in_arc.!(s) in
        let l = load.(a) in
        if
          (if l > bott.!(u) then l else bott.!(u)) = bott.!(w)
          && (!best < 0 || bott.!(u) < bott.!(!best)
             || (bott.!(u) = bott.!(!best) && u < !best))
        then begin
          best := u;
          best_arc := a
        end
      end
    done;
    arcs.(k - 1) <- !best_arc;
    v := !best
  done;
  verts.(0) <- !v

let bottleneck_path d load src dst =
  let scr = scratch ~seed:true d in
  let len = seed_labels scr load src dst in
  if len < 0 then None
  else begin
    let verts, arcs = route_buffers len in
    seed_route scr load dst len verts arcs;
    Some (Dipath.of_vertex_array (Dag.graph d) verts)
  end

let min_load_router d =
  let n = Dag.n_vertices d in
  let scr = scratch ~seed:true d in
  let load = Array.make (max 1 (Dag.n_arcs d)) 0 (* alloc-ok: router state *) in
  fun (x, y) ->
    match check_request n 0 (x, y) with
    | Error e -> Error e
    | Ok () ->
      let len = seed_labels scr load x y in
      if len < 0 then begin
        Metrics.incr c_unroutable;
        Error (unroutable (x, y))
      end
      else begin
        let verts, arcs = route_buffers len in
        seed_route scr load y len verts arcs;
        Array.iter (fun a -> load.(a) <- load.(a) + 1) arcs;
        Ok (Dipath.of_vertex_array (Dag.graph d) verts)
      end

let route_min_load d requests =
  let router = min_load_router d in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest -> (
      match router r with
      | Ok p -> go (i + 1) (p :: acc) rest
      | Error (Error.Invalid_path _) -> Error (unroutable ~index:i r)
      | Error e -> Error e)
  in
  go 0 [] requests

(* --- k-shortest dipaths (Yen) ----------------------------------------------

   Yen's algorithm over the (hop count, lexicographic vertex sequence)
   total order: the accepted list comes out sorted by that order,
   duplicate-free, and — because every dipath in a DAG is loopless —
   complete whenever [k] reaches the number of src-dst dipaths.  Routes
   are vertex arrays; candidate bookkeeping is plain lists of them, as
   [k] is small by design.  Each spur is one {!spur_dist} + {!lex_walk}. *)

let compare_vseq (a : int array) (b : int array) =
  let c = compare (Array.length a) (Array.length b) in
  if c <> 0 then c else compare a b

let compare_route p q =
  let c = compare (Dipath.n_arcs p) (Dipath.n_arcs q) in
  if c <> 0 then c else compare (Dipath.vertices p) (Dipath.vertices q)

let prefix_eq (a : int array) (b : int array) len =
  let rec go i = i >= len || (a.(i) = b.(i) && go (i + 1)) in
  Array.length a >= len && Array.length b >= len && go 0

(* Up to [k >= 1] routes as vertex arrays, in acceptance order. *)
let yen scr ~k src dst =
  let len0 = shortest_into scr src dst in
  if len0 < 0 then []
  else begin
    let p0 = path_array scr len0 in
    let accepted = ref [ p0 ] in
    let n_accepted = ref 1 in
    let candidates = ref [] in
    let spur_from last =
      for j = 0 to Array.length last - 2 do
        (* Accepted routes through the root path [last.(0 .. j)] may not
           leave it by the arc they took. *)
        let banned =
          List.fold_left
            (fun acc p ->
              if Array.length p > j + 1 && prefix_eq p last (j + 1) then p.(j + 1) :: acc
              else acc)
            [] !accepted
        in
        let d = spur_dist scr ~banned last.(j) dst in
        if d >= 0 then begin
          for t = 0 to j - 1 do
            scr.path.!(t) <- last.(t)
          done;
          lex_walk scr ~banned last.(j) dst j;
          let len = j + d in
          let seen p =
            let rec go i = i > len || (p.(i) = scr.path.!(i) && go (i + 1)) in
            Array.length p = len + 1 && go 0
          in
          if not (List.exists seen !candidates || List.exists seen !accepted)
          then candidates := path_array scr len :: !candidates
        end
      done
    in
    let pop_min () =
      match !candidates with
      | [] -> None
      | first :: rest ->
        let best =
          List.fold_left
            (fun acc c -> if compare_vseq c acc < 0 then c else acc)
            first rest
        in
        candidates :=
          List.filter (fun c -> compare_vseq c best <> 0) !candidates;
        Some best
    in
    let rec grow last =
      if !n_accepted < k then begin
        spur_from last;
        match pop_min () with
        | None -> ()
        | Some best ->
          accepted := best :: !accepted;
          incr n_accepted;
          grow best
      end
    in
    grow p0;
    List.rev !accepted
  end

let k_shortest ?(k = 8) d src dst =
  if k <= 0 || src = dst then []
  else
    let g = Dag.graph d in
    List.map (Dipath.of_vertex_array g) (yen (scratch ~spur:true d) ~k src dst)

(* --- routing-aware lower bound ---------------------------------------------

   The computable side of the global packing number (Lo-Zhang-Wong-Fu):
   every routing of the requests has maximum arc load at least

     max( ceil(sum of shortest-path hops / m),          volume bound
          max over arcs of #requests forced through )   forced-arc bound

   An arc (u, v) is forced for request (x, y) when every x-y dipath uses
   it, i.e. #paths(x, u) * #paths(v, y) = #paths(x, y): in a DAG a path
   into u and a path out of v cannot intersect, so the product counts
   exactly the dipaths through the arc.  Counts saturate; a saturated
   total conservatively reads as "nothing forced", which only weakens the
   bound, never invalidates it.

   Per request, one forward sweep from x over the frontier pushes f =
   #paths(x, .) and the hop distance along the out-arcs of the vertices
   x reaches before pos y, then one reverse sweep over those same
   vertices, in the opposite order, gathers g = #paths(., y) and counts
   the forced arcs among their out-arcs — node values pushed along a DAG
   in topological order.  No other vertex can carry an x-y dipath, and
   when the total is unsaturated so is every f(u) and g(v) on one.  The
   total f(y) is the request's dipath count, which select reads to skip
   Yen where there is exactly one. *)

(* Adds the request's forced arcs to [scr.forced]; its dipath count,
   zero when [y] is unreachable.  When the count is not zero, [scr.hops]
   holds [y]'s hop distance. *)
let bound_request scr x y =
  let c = scr.c in
  let px = pos c x and py = pos c y in
  if py <= px then Saturating.zero
  else begin
    let ep = next_epoch scr in
    let mark = scr.mark and f = scr.fwd and g = scr.rev and hops = scr.hops in
    let front = scr.front and seen = scr.queue in
    mark.!(x) <- ep;
    f.(x) <- Saturating.one;
    hops.!(x) <- 0;
    push front px;
    let n_seen = ref 0 in
    let cur = ref (px / bits) and last = (py - 1) / bits in
    while !cur <= last do
      let word = front.!(!cur) in
      if word = 0 then incr cur
      else begin
        front.!(!cur) <- word land (word - 1);
        let u = at c ((!cur * bits) + ctz word) in
        seen.!(!n_seen) <- u;
        incr n_seen;
        let fu = f.(u) and h = hops.!(u) + 1 in
        for s = c.out_off.!(u) to c.out_off.!(u + 1) - 1 do
          let w = c.out_dst.!(s) in
          let pw = pos c w in
          if pw <= py then
            if mark.!(w) <> ep then begin
              mark.!(w) <- ep;
              f.(w) <- fu;
              hops.!(w) <- h;
              if pw < py then push front pw
            end
            else begin
              f.(w) <- Saturating.add f.(w) fu;
              if h < hops.!(w) then hops.!(w) <- h
            end
        done
      end
    done;
    if mark.!(y) <> ep then Saturating.zero
    else begin
      let total = f.(y) in
      if not (Saturating.is_saturated total) then begin
        g.(y) <- Saturating.one;
        for i = !n_seen - 1 downto 0 do
          let v = seen.!(i) in
          let fv = f.(v) and gv = ref Saturating.zero in
          for s = c.out_off.!(v) to c.out_off.!(v + 1) - 1 do
            let w = c.out_dst.!(s) in
            if pos c w <= py then begin
              gv := Saturating.add !gv g.(w);
              if Saturating.equal (Saturating.mul fv g.(w)) total then begin
                let a = c.out_arc.!(s) in
                scr.forced.(a) <- scr.forced.(a) + 1
              end
            end
          done;
          g.(v) <- !gv
        done
      end;
      total
    end
  end

(* Once per scratch: [scr.forced] accumulates from zero.  When [counts]
   has a cell per request, each request's dipath count lands in it. *)
let bound_with scr d requests counts =
  let n = Dag.n_vertices d and m = Dag.n_arcs d in
  if requests = [] || m = 0 then 0
  else
    Trace.with_span "routing.bound" @@ fun () ->
    let total_hops = ref 0 in
    List.iteri
      (fun i (x, y) ->
        if x >= 0 && x < n && y >= 0 && y < n then begin
          let paths = bound_request scr x y in
          if i < Array.length counts then counts.(i) <- paths;
          if Saturating.to_int paths > 0 then total_hops := !total_hops + scr.hops.!(y)
        end)
      requests;
    let forced_max = ref 0 in
    for a = 0 to m - 1 do
      if scr.forced.(a) > !forced_max then forced_max := scr.forced.(a)
    done;
    max ((!total_hops + m - 1) / m) !forced_max

let lower_bound d requests = bound_with (scratch ~bound:true d) d requests [||]

(* --- the full routing stage: count, enumerate, seed, search ----------------- *)

type selection = {
  requests : request array;
  routes : Dipath.t array;
  k : int;
  n_alternatives : int;
  seed_load : int;
  max_load : int;
  lower_bound : int;
  swaps : int;
  rounds : int;
}

let select ?(k = 8) ?(max_rounds = 64) d requests =
  let t0 = Clock.now_ns () in
  Trace.with_span "routing.select" @@ fun () ->
  let g = Dag.graph d in
  let n = Digraph.n_vertices g in
  let m = Digraph.n_arcs g in
  let reqs = Array.of_list requests (* alloc-ok: request parsing *) in
  let nr = Array.length reqs in
  Metrics.add c_requests nr;
  let rec validate i =
    if i >= nr then Ok ()
    else
      match check_request n i reqs.(i) with
      | Error e -> Error e
      | Ok () -> validate (i + 1)
  in
  let valid =
    if k <= 0 then
      Error (Error.Precondition (Printf.sprintf "select: k = %d, need k >= 1" k))
    else validate 0
  in
  match valid with
  | Error e -> Error e
  | Ok () -> (
    let scr = scratch ~seed:true ~spur:true ~bound:true d in
    (* Phase 1: the bound, whose forward sweeps count each request's
       dipaths. *)
    let paths = Array.make nr Saturating.zero (* alloc-ok: per-call scratch *) in
    let lb = bound_with scr d requests paths in
    (* Phase 2: k alternatives per request (Yen, deterministic).  A
       request with one dipath needs no enumeration: the seed below is
       that dipath, and it joins the empty set as the only alternative. *)
    let alts = Array.make nr [||] (* alloc-ok: per-call scratch *) in
    let failure = ref None in
    Trace.with_span "routing.kshortest" (fun () ->
        Array.iteri
          (fun i (x, y) ->
            if !failure <> None then ()
            else if Saturating.equal paths.(i) Saturating.one then
              Metrics.observe h_alternatives 1
            else
              match yen scr ~k x y with
              | [] ->
                Metrics.incr c_unroutable;
                failure := Some (unroutable ~index:i (x, y))
              | l ->
                Metrics.observe h_alternatives (List.length l);
                alts.(i) <- Array.of_list (List.map (Dipath.of_vertex_array g) l) (* alloc-ok: output *))
          reqs);
    match !failure with
    | Some e -> Error e
    | None ->
      (* Phase 3: greedy seed by the bottleneck labels.  The seed route
         joins the request's alternative set when Yen's cutoff missed it
         or Yen was skipped, so the search space always contains the
         seed.  Routes from one source are equal iff their arc sequences
         are. *)
      let load = Array.make (max 1 m) 0 (* alloc-ok: per-call scratch *) in
      let chosen = Array.make nr 0 (* alloc-ok: per-call scratch *) in
      Trace.with_span "routing.seed" (fun () ->
          Array.iteri
            (fun i (x, y) ->
              let len = seed_labels scr load x y in
              let idx =
                if len < 0 then 0
                else begin
                  let verts, arcs = route_buffers len in
                  seed_route scr load y len verts arcs;
                  let rec find j =
                    if j >= Array.length alts.(i) then begin
                      let p = Dipath.of_vertex_array g verts in
                      alts.(i) <- Array.append alts.(i) [| p |] (* alloc-ok: output *);
                      j
                    end
                    else if Dipath.unsafe_arc_array alts.(i).(j) = arcs then j
                    else find (j + 1)
                  in
                  find 0
                end
              in
              chosen.(i) <- idx;
              Array.iter
                (fun a -> load.(a) <- load.(a) + 1)
                (Dipath.unsafe_arc_array alts.(i).(idx)))
            reqs);
      (* Load-level histogram: cnt.(l) = #arcs at load l.  The search
         objective (max load, #arcs attaining it) reads off it in O(1)
         and swap trials update it in O(path length). *)
      let cnt = Array.make (nr + 1) 0 (* alloc-ok: per-call scratch *) in
      let cur_max = ref 0 in
      for a = 0 to m - 1 do
        cnt.(load.(a)) <- cnt.(load.(a)) + 1;
        if load.(a) > !cur_max then cur_max := load.(a)
      done;
      let seed_load = !cur_max in
      let apply p delta =
        Array.iter
          (fun a ->
            cnt.(load.(a)) <- cnt.(load.(a)) - 1;
            load.(a) <- load.(a) + delta;
            cnt.(load.(a)) <- cnt.(load.(a)) + 1;
            if load.(a) > !cur_max then cur_max := load.(a))
          (Dipath.unsafe_arc_array p);
        while !cur_max > 0 && cnt.(!cur_max) = 0 do
          decr cur_max
        done
      in
      (* Phase 4: local search.  A swap is kept only when it strictly
         lowers (max load, #arcs at max) — strict descent terminates and
         guarantees max_load <= seed_load. *)
      let swaps = ref 0 in
      let rounds = ref 0 in
      Trace.with_span "routing.search" (fun () ->
          let improved = ref true in
          while !improved && !rounds < max_rounds do
            improved := false;
            incr rounds;
            for i = 0 to nr - 1 do
              let n_alt = Array.length alts.(i) in
              for j = 0 to n_alt - 1 do
                if j <> chosen.(i) then begin
                  let old_obj = (!cur_max, cnt.(!cur_max)) in
                  let pc = alts.(i).(chosen.(i)) and pj = alts.(i).(j) in
                  apply pc (-1);
                  apply pj 1;
                  if (!cur_max, cnt.(!cur_max)) < old_obj then begin
                    chosen.(i) <- j;
                    incr swaps;
                    improved := true;
                    Metrics.incr c_swaps
                  end
                  else begin
                    apply pj (-1);
                    apply pc 1
                  end
                end
              done
            done
          done);
      Metrics.add c_rounds !rounds;
      let routes = Array.mapi (fun i _ -> alts.(i).(chosen.(i))) reqs in
      let n_alternatives =
        Array.fold_left (fun acc a -> acc + Array.length a) 0 alts
      in
      Metrics.observe_ns l_select (Clock.now_ns () - t0);
      Ok
        {
          requests = reqs;
          routes;
          k;
          n_alternatives;
          seed_load;
          max_load = !cur_max;
          lower_bound = lb;
          swaps = !swaps;
          rounds = !rounds;
        })

let instance_of_selection d sel = Instance.of_array d sel.routes

(* --- request files ---------------------------------------------------------- *)

let requests_to_string requests =
  let b = Buffer.create 64 (* alloc-ok: output *) in
  Buffer.add_string b "wlreq 1\n";
  List.iter
    (fun (x, y) -> Buffer.add_string b (Printf.sprintf "req %d %d\n" x y))
    requests;
  Buffer.contents b

(* The next token, as an integer. *)
let next_int sc =
  ignore (Scan.next_token sc);
  match Scan.int sc with v -> Some v | exception Scan.Not_int -> None

let requests_of_string s =
  let sc = Scan.create s in
  let err msg = Error (Error.Parse { line = Scan.line sc; msg }) in
  let rec go first acc =
    if not (Scan.next_line sc) then Ok (List.rev acc)
    else if not (Scan.next_token sc) then go first acc
    else if Scan.is sc "req" && Scan.tokens sc = 3 then begin
      let x = next_int sc in
      let y = next_int sc in
      match (x, y) with
      | Some x, Some y -> go false ((x, y) :: acc)
      | _ -> err "expected 'req X Y' with integer vertices"
    end
    else if Scan.is sc "wlreq" && Scan.tokens sc = 2 then
      if not first then err "wlreq header must come first"
      else
        match next_int sc with
        | Some 1 -> go false acc
        | Some v when v > 1 -> Error (Error.Unsupported_version v)
        | _ -> err "malformed wlreq header"
    else err (Printf.sprintf "unknown directive %S" (Scan.token sc))
  in
  go true []

let read_requests_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> requests_of_string s
  | exception Sys_error msg -> Error (Error.Io msg)

(* --- request families ------------------------------------------------------- *)

let all_to_all d = Upp.routable_pairs d

let route_multicast_tree d root =
  let g = Dag.graph d in
  let n = Digraph.n_vertices g in
  (* BFS parents rooted at the source. *)
  let parent = Array.make n (-1) (* alloc-ok: per-call scratch *) in
  let seen = Array.make n false (* alloc-ok: per-call scratch *) in
  let queue = Queue.create () (* alloc-ok: per-call scratch *) in
  seen.(root) <- true;
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          parent.(w) <- v;
          Queue.add w queue
        end)
      (Digraph.succ g v)
  done;
  let rec tree_path v acc =
    if v = root then root :: acc else tree_path parent.(v) (v :: acc)
  in
  List.filter_map
    (fun v ->
      if v <> root && seen.(v) then Some (Dipath.make g (tree_path v []))
      else None)
    (List.init n Fun.id)

let multicast d root =
  let reachable = Traversal.reachable_from (Dag.graph d) root in
  let out = ref [] in
  Array.iteri (fun v r -> if r && v <> root then out := (root, v) :: !out) reachable;
  List.rev !out

let random_requests rng d k =
  match all_to_all d with
  | [] -> []
  | pairs ->
    let arr = Array.of_list pairs (* alloc-ok: request generation *) in
    List.init k (fun _ -> Wl_util.Prng.choose rng arr)

let instance_of d route requests =
  Result.map (Instance.make d) (route d requests)
