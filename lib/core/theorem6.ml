open Wl_digraph
module Dag = Wl_dag.Dag
module Internal_cycle = Wl_dag.Internal_cycle
module Upp = Wl_dag.Upp
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace

let c_splits = Metrics.counter "thm6.splits"
let c_pad = Metrics.counter "thm6.pad_paths"
let c_fresh = Metrics.counter "thm6.fresh_colors"
let c_repairs = Metrics.counter "thm6.repair_recolors"
let c_sweep = Metrics.counter "thm6.sweep_recolors"
let h_tuples = Metrics.histogram "thm6.tuple_len"

(* Slack of the paper's bound at each split: [ceil(4 pi/3) - w].  Negative
   observations mark bound violations (possible only on multiset families
   the proof's Facts do not cover) — [min] in the summary exposes them. *)
let h_slack = Metrics.histogram "thm6.bound_slack"

exception Not_applicable of string

type stats = {
  pi : int;
  split_arc : Digraph.arc;
  cycle_type : (int * int) list;
  fresh_colors : int;
  n_colors : int;
}

let upper_bound pi = ((4 * pi) + 2) / 3

(* The split graph: G minus (a, b), plus a -> s and t -> b. Vertex ids of G
   are preserved; s and t are the two new last vertices. *)
let split_graph g ab_src ab_dst =
  let n = Digraph.n_vertices g in
  let g' = Digraph.create () in
  for v = 0 to n - 1 do
    ignore (Digraph.add_vertex ~label:(Digraph.label g v) g')
  done;
  let s = Digraph.add_vertex ~label:"s" g' in
  let t = Digraph.add_vertex ~label:"t" g' in
  Digraph.iter_arcs
    (fun _ u v -> if not (u = ab_src && v = ab_dst) then ignore (Digraph.add_arc g' u v))
    g;
  ignore (Digraph.add_arc g' ab_src s);
  ignore (Digraph.add_arc g' t ab_dst);
  (g', s, t)

(* --- Re-pairing of half colors -------------------------------------------

   The split coloring assigns each through-dipath a first-half color (the
   injection [f]) and a second-half color ([g]).  Identical halves (copies
   of the same dipath, or distinct dipaths agreeing on one side of the split
   arc) are interchangeable, so colors may be permuted freely within each
   group of identical first halves, and within each group of identical
   second halves.

   We exploit that freedom to rebuild the pairing out of tuples that visit
   each half-shape group at most once: consider the multigraph whose nodes
   are the half-shape groups (plus one virtual "outside" node) and whose
   arcs are (i) one arc per through-member from its first-half group to its
   second-half group, (ii) one arc per color in [image f ∩ image g] from
   the second-half group that owns it to the first-half group that owns it,
   and (iii) arcs through the outside node for colors in only one image.
   The multigraph is balanced, so its arc set decomposes into vertex-simple
   cycles; cycles avoiding the outside node are the paper's sigma-cycles,
   cycles through it are "chains" (they only arise when the sub-coloring
   used more than pi colors, i.e. in the multi-cycle recursion).  Within
   such a tuple all second-half shapes are distinct, which is what the
   repair step's disjointness argument (the paper's Facts 1 and 2, valid
   for half shapes diverging right after the split arc) needs. *)

type tuple = { members : int array; colors : int array }

type tuple_kind =
  | Cycle of tuple
      (* member m_l consumes (first half) colors.(l-1 mod p) and emits
         (second half) colors.(l) *)
  | Chain of tuple
      (* colors has length p+1: member m_l consumes colors.(l) and emits
         colors.(l+1); colors.(0) is consumed only, colors.(p) emitted
         only *)

let decompose ~pi ~n_colors ~fh_gid ~sh_gid ~f ~g_map =
  let owner_fh = Array.make n_colors (-1) and owner_sh = Array.make n_colors (-1) in
  Array.iteri (fun j c -> owner_fh.(c) <- fh_gid.(j)) f;
  Array.iteri (fun j c -> owner_sh.(c) <- sh_gid.(j)) g_map;
  let member_used = Array.make pi false in
  let color_used = Array.make n_colors false in
  let tuples = ref [] in
  (* Fixed-point pre-pass (the paper's C1): member m and color c owned by
     both of m's groups. *)
  for m = 0 to pi - 1 do
    if not member_used.(m) then begin
      let rec find c =
        if c >= n_colors then None
        else if
          (not color_used.(c))
          && owner_fh.(c) = fh_gid.(m)
          && owner_sh.(c) = sh_gid.(m)
        then Some c
        else find (c + 1)
      in
      match find 0 with
      | Some c ->
        member_used.(m) <- true;
        color_used.(c) <- true;
        tuples := Cycle { members = [| m |]; colors = [| c |] } :: !tuples
      | None -> ()
    end
  done;
  (* Nodes: 2*gid for first-half groups, 2*gid+1 for second-half groups,
     -1 for the virtual outside node. *)
  let node_of_fh gid = 2 * gid
  and node_of_sh gid = (2 * gid) + 1
  and outside = -1 in
  let adj : (int, _ list ref) Hashtbl.t = Hashtbl.create 32 in
  let out_list u =
    match Hashtbl.find_opt adj u with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add adj u l;
      l
  in
  let add_arc u payload = out_list u := payload :: !(out_list u) in
  for m = 0 to pi - 1 do
    if not member_used.(m) then add_arc (node_of_fh fh_gid.(m)) (`Member m)
  done;
  for c = 0 to n_colors - 1 do
    if not color_used.(c) then begin
      match (owner_fh.(c) >= 0, owner_sh.(c) >= 0) with
      | true, true -> add_arc (node_of_sh owner_sh.(c)) (`Color c)
      | true, false -> add_arc outside (`Free_in c)
      | false, true -> add_arc (node_of_sh owner_sh.(c)) (`Free_out c)
      | false, false -> ()
    end
  done;
  (* Balance the outside node: it already has |F \ G| out-arcs (`Free_in)
     and |G \ F| in-arcs (`Free_out); the two counts are equal because f
     and g are injections of the same domain. *)
  let head_of = function
    | `Member m -> node_of_sh sh_gid.(m)
    | `Color c -> node_of_fh owner_fh.(c)
    | `Free_in c -> node_of_fh owner_fh.(c)
    | `Free_out _ -> outside
  in
  let arc_used = Hashtbl.create 32 in
  let next_unused u =
    match Hashtbl.find_opt adj u with
    | None -> None
    | Some l -> List.find_opt (fun pl -> not (Hashtbl.mem arc_used pl)) !l
  in
  (* Extract vertex-simple cycles: walk without reusing arcs until a node
     repeats; balance guarantees the walk never gets stuck. *)
  let extract_from start =
    let rec walk path u =
      match next_unused u with
      | None -> invalid_arg "Theorem6: unbalanced transition multigraph"
      | Some payload ->
        let v = head_of payload in
        let path = (u, payload) :: path in
        if List.exists (fun (w, _) -> w = v) path then begin
          let rec take acc = function
            | [] -> acc
            | (w, pl) :: rest ->
              let acc = pl :: acc in
              if w = v then acc else take acc rest
          in
          let cyc = take [] path in
          List.iter (fun pl -> Hashtbl.replace arc_used pl ()) cyc;
          cyc
        end
        else walk path v
    in
    walk [] start
  in
  let remaining () =
    let found = ref None in
    Hashtbl.iter
      (fun u l ->
        if !found = None
           && List.exists (fun pl -> not (Hashtbl.mem arc_used pl)) !l
        then found := Some u)
      adj;
    !found
  in
  let tuple_of_walk cyc =
    (* Rotate a chain walk to start at its `Free_in, a cycle walk to start
       at a member. *)
    let is_chain = List.exists (function `Free_in _ | `Free_out _ -> true | _ -> false) cyc in
    let rec rotate cyc guard =
      if guard = 0 then invalid_arg "Theorem6: malformed walk";
      match cyc with
      | (`Free_in _ :: _) when is_chain -> cyc
      | (`Member _ :: _) when not is_chain -> cyc
      | x :: rest -> rotate (rest @ [ x ]) (guard - 1)
      | [] -> []
    in
    let cyc = rotate cyc (List.length cyc + 1) in
    let members =
      List.filter_map (function `Member m -> Some m | _ -> None) cyc
      |> Array.of_list
    in
    if is_chain then begin
      (* Walk: Free_in c0; Member m1; Color c1; ...; Member mp; Free_out cp.
         Colors in order c0 .. cp. *)
      let colors =
        List.filter_map
          (function
            | `Free_in c | `Color c | `Free_out c -> Some c
            | `Member _ -> None)
          cyc
        |> Array.of_list
      in
      Chain { members; colors }
    end
    else begin
      (* Walk: Member m1; Color c1; ...; Member mp; Color cp. *)
      let colors =
        List.filter_map (function `Color c -> Some c | _ -> None) cyc
        |> Array.of_list
      in
      Cycle { members; colors }
    end
  in
  let rec drain () =
    match remaining () with
    | None -> ()
    | Some u ->
      let cyc = extract_from u in
      tuples := tuple_of_walk cyc :: !tuples;
      drain ()
  in
  drain ();
  List.rev !tuples

(* --- Main algorithm ------------------------------------------------------ *)

let check_hypotheses ~exact_one dag =
  if not (Upp.is_upp dag) then raise (Not_applicable "DAG is not UPP");
  let c = Internal_cycle.count_independent dag in
  if exact_one && c <> 1 then
    raise
      (Not_applicable
         (Printf.sprintf "expected exactly one internal cycle, found %d" c));
  if (not exact_one) && c < 1 then
    raise (Not_applicable "no internal cycle: use Theorem 1")

(* Splits the max-load cycle arc, colors the split instance with [subcolor],
   and re-glues.  This is the engine shared by Theorem 6 proper ([subcolor]
   = Theorem 1) and the multi-cycle recursion. *)
let split_and_glue ~subcolor inst =
  let dag = Instance.dag inst in
  let g = Instance.graph inst in
  let n_orig = Instance.n_paths inst in
  let pi0 = Load.pi inst in
  if pi0 = 0 then
    ( Array.make n_orig 0,
      { pi = 0; split_arc = -1; cycle_type = []; fresh_colors = 0; n_colors = 0 } )
  else begin
    Metrics.incr c_splits;
    let can =
      match Internal_cycle.find_canonical dag with
      | Some can -> can
      | None -> raise (Not_applicable "no internal cycle: use Theorem 1")
    in
    let cycle_arcs = Internal_cycle.arcs_of_canonical can in
    let ab = Load.max_load_arc_among inst cycle_arcs in
    let a, b = Digraph.arc_endpoints g ab in
    (* Pad so that the split arc carries the full load pi. *)
    let pad = pi0 - Load.arc_load inst ab in
    Metrics.add c_pad pad;
    let padded =
      if pad = 0 then inst
      else Instance.add_paths inst (List.init pad (fun _ -> Dipath.make g [ a; b ]))
    in
    let n_padded = Instance.n_paths padded in
    let g', s, t = split_graph g a b in
    let dag' = Result.get_ok (Dag.of_digraph g') in
    let through = ref [] and outside = ref [] in
    for i = n_padded - 1 downto 0 do
      if Dipath.mem_arc (Instance.path padded i) ab then through := i :: !through
      else outside := i :: !outside
    done;
    let through = Array.of_list !through in
    let pi = Array.length through in
    assert (pi = pi0);
    (* Split family: outside paths unchanged, through paths cut in two. *)
    let split_paths = ref [] and tags = ref [] in
    let add_path p tag =
      split_paths := p :: !split_paths;
      tags := tag :: !tags
    in
    List.iter
      (fun i ->
        add_path (Dipath.make g' (Dipath.vertices (Instance.path padded i))) (`Outside i))
      !outside;
    let half_vertices = Array.make pi ([], []) in
    Array.iteri
      (fun j i ->
        let verts = Dipath.vertices (Instance.path padded i) in
        let rec cut acc = function
          | [] -> invalid_arg "Theorem6: split arc not on path"
          | v :: rest ->
            if v = a then (List.rev (s :: v :: acc), t :: rest)
            else cut (v :: acc) rest
        in
        let first_verts, second_verts = cut [] verts in
        half_vertices.(j) <- (first_verts, second_verts);
        add_path (Dipath.make g' first_verts) (`First j);
        add_path (Dipath.make g' second_verts) (`Second j))
      through;
    let split_inst = Instance.make dag' (List.rev !split_paths) in
    let tags = Array.of_list (List.rev !tags) in
    let split_colors = Trace.with_span "thm6.subcolor" (fun () -> subcolor split_inst) in
    let n_sub_colors =
      Array.fold_left (fun acc c -> max acc (c + 1)) pi split_colors
    in
    (* Half-shape groups and the two color injections. *)
    let fh_groups = Hashtbl.create 16 and sh_groups = Hashtbl.create 16 in
    let gid table key =
      match Hashtbl.find_opt table key with
      | Some id -> id
      | None ->
        let id = Hashtbl.length table in
        Hashtbl.add table key id;
        id
    in
    let fh_gid = Array.make pi (-1) and sh_gid = Array.make pi (-1) in
    Array.iteri
      (fun j (fv, sv) ->
        fh_gid.(j) <- gid fh_groups fv;
        sh_gid.(j) <- gid sh_groups sv)
      half_vertices;
    (* Damage classes.  The G-parts of second halves are dipaths out of [b];
       in a UPP-DAG they form a prefix tree, and two of them are
       arc-disjoint iff their first arcs differ — only then are their
       damaged outside dipaths guaranteed disjoint.  So the repair-sharing
       granularity is the first arc after [b] (resp. the last arc before
       [a]); [-1] marks an empty part (a padding copy), which can damage
       nothing. *)
    let sh_class = Array.make pi (-1) and fh_class = Array.make pi (-1) in
    Array.iteri
      (fun j (fv, sv) ->
        (match sv with
        | _t :: b' :: next :: _ ->
          ignore b';
          sh_class.(j) <- Option.get (Digraph.find_arc g b next)
        | _ -> ());
        let rec last_two = function
          | [ z; a'; _s ] ->
            ignore a';
            fh_class.(j) <- Option.get (Digraph.find_arc g z a)
          | _ :: rest -> last_two rest
          | [] -> ()
        in
        last_two fv)
      half_vertices;
    let f = Array.make pi (-1) and g_map = Array.make pi (-1) in
    Array.iteri
      (fun idx tag ->
        match tag with
        | `First j -> f.(j) <- split_colors.(idx)
        | `Second j -> g_map.(j) <- split_colors.(idx)
        | `Outside _ -> ())
      tags;
    let tuples =
      Trace.with_span "thm6.decompose" (fun () ->
          decompose ~pi ~n_colors:n_sub_colors ~fh_gid ~sh_gid ~f ~g_map)
    in
    if Metrics.enabled () then
      List.iter
        (fun t ->
          match t with
          | Cycle { members; _ } | Chain { members; _ } ->
            Metrics.observe h_tuples (Array.length members))
        tuples;
    let cycle_type =
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun t ->
          let l =
            match t with
            | Cycle { members; _ } | Chain { members; _ } -> Array.length members
          in
          Hashtbl.replace tbl l (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
        tuples;
      Hashtbl.fold (fun l m acc -> (l, m) :: acc) tbl [] |> List.sort compare
    in
    (* Assignment over the padded family in G.  Outside paths inherit their
       split colors. *)
    let final = Array.make n_padded (-1) in
    Array.iteri
      (fun idx tag ->
        match tag with
        | `Outside i -> final.(i) <- split_colors.(idx)
        | `First _ | `Second _ -> ())
      tags;
    let fresh = ref 0 in
    let next_fresh () =
      let c = n_sub_colors + !fresh in
      incr fresh;
      Metrics.incr c_fresh;
      c
    in
    (* Gluings: (member rank, new color, lazy repair color).  Repair colors
       are allocated per (tuple, damage class): distinct classes within a
       tuple share one color, same-class repeats and cross-tuple damage get
       their own.  Chains allocate even their first repair lazily (their
       glued colors are all palette colors, so a chain often needs none). *)
    let gluings = ref [] in
    let glue m color repair = gluings := (m, color, repair) :: !gluings in
    let no_repair = fun () -> -1 in
    let lazy_fresh () =
      let cell = ref (-1) in
      fun () ->
        if !cell < 0 then cell := next_fresh ();
        !cell
    in
    let tuple_repairs gamma =
      (* gamma: the tuple's shared repair color (eager for p-cycles, lazy
         for chains).  Distinct damage classes share it; a same-class repeat
         gets its own fresh color — but only when a repair actually
         happens, so phantom damage costs nothing. *)
      let seen = Hashtbl.create 4 in
      fun cls ->
        let cell = ref None in
        fun () ->
          match !cell with
          | Some c -> c
          | None ->
            let c =
              if cls >= 0 && Hashtbl.mem seen cls then next_fresh ()
              else begin
                if cls >= 0 then Hashtbl.add seen cls ();
                gamma ()
              end
            in
            cell := Some c;
            c
    in
    let fixed, twos, longer, chains =
      List.fold_left
        (fun (fx, tw, lg, ch) t ->
          match t with
          | Chain c -> (fx, tw, lg, c :: ch)
          | Cycle c -> (
            match Array.length c.members with
            | 1 -> (c :: fx, tw, lg, ch)
            | 2 -> (fx, c :: tw, lg, ch)
            | _ -> (fx, tw, c :: lg, ch)))
        ([], [], [], []) tuples
    in
    List.iter (fun c -> glue c.members.(0) c.colors.(0) no_repair) fixed;
    (* Chains: every member keeps its consumed (first-half) color; lazy
       repairs. *)
    List.iter
      (fun c ->
        let repair = tuple_repairs (lazy_fresh ()) in
        Array.iteri
          (fun l m ->
            let get_repair = repair sh_class.(m) in
            glue m c.colors.(l) get_repair)
          c.members)
      chains;
    (* p-cycles (p >= 3): m_1 takes a fresh color (freeing its first-half
       color), the rest keep their first-half colors.  The rotation is free,
       so put the fresh color on a member of the most repeated damage class:
       every same-class repeat among the damaged members costs an extra
       fresh color. *)
    let rotate_to_heaviest_class c =
      let p = Array.length c.members in
      let count cls =
        if cls < 0 then 0
        else
          Array.fold_left
            (fun acc m -> if sh_class.(m) = cls then acc + 1 else acc)
            0 c.members
      in
      let best = ref 0 and best_count = ref (-1) in
      Array.iteri
        (fun l m ->
          let k = count sh_class.(m) in
          if k > !best_count then begin
            best := l;
            best_count := k
          end)
        c.members;
      let r = !best in
      {
        members = Array.init p (fun l -> c.members.((l + r) mod p));
        colors = Array.init p (fun l -> c.colors.((l + r) mod p));
      }
    in
    let freed = ref [] in
    List.iter
      (fun c ->
        let c = rotate_to_heaviest_class c in
        let p = Array.length c.members in
        let gamma = next_fresh () in
        let repair = tuple_repairs (fun () -> gamma) in
        glue c.members.(0) gamma no_repair;
        let damaged = ref [] in
        for l = 1 to p - 1 do
          let m = c.members.(l) in
          glue m c.colors.(l - 1) (repair sh_class.(m));
          if sh_class.(m) >= 0 then damaged := sh_class.(m) :: !damaged
        done;
        freed := (ref (Some c.colors.(p - 1)), gamma, ref !damaged) :: !freed)
      longer;
    (* 2-cycles, paired when their damage classes allow sharing one fresh
       color; a leftover merges with a p-cycle when classes allow, else it
       stands alone. *)
    let sh_of c l = sh_class.(c.members.(l)) in
    let fcolor c l = c.colors.(1 - l) in
    let pair_gluings a ga b =
      let keep_a = 1 - ga in
      let groups =
        List.filter (fun x -> x >= 0) [ sh_of a keep_a; sh_of b 0; sh_of b 1 ]
      in
      let rec distinct = function
        | [] -> true
        | x :: rest -> (not (List.mem x rest)) && distinct rest
      in
      if not (distinct groups) then None
      else
        Some
          (fun gamma ->
            let repair = tuple_repairs (fun () -> gamma) in
            glue a.members.(ga) gamma no_repair;
            glue a.members.(keep_a) (fcolor a keep_a) (repair (sh_of a keep_a));
            glue b.members.(0) (fcolor b 0) (repair (sh_of b 0));
            glue b.members.(1) (fcolor b 1) (repair (sh_of b 1)))
    in
    let unpaired = ref [] in
    let rec pair_up = function
      | [] -> ()
      | a :: rest ->
        let rec try_partner tried = function
          | [] ->
            unpaired := a :: !unpaired;
            pair_up (List.rev tried)
          | b :: more -> (
            let attempt =
              match pair_gluings a 0 b with
              | Some f -> Some f
              | None -> (
                match pair_gluings a 1 b with
                | Some f -> Some f
                | None -> (
                  match pair_gluings b 0 a with
                  | Some f -> Some f
                  | None -> pair_gluings b 1 a))
            in
            match attempt with
            | Some apply ->
              apply (next_fresh ());
              pair_up (List.rev_append tried more)
            | None -> try_partner (b :: tried) more)
        in
        try_partner [] rest
    in
    pair_up twos;
    List.iter
      (fun c ->
        (* The member taking the freed color is damaged on both halves; its
           first-half damage could collide with other members' second-half
           damage regardless of classes, so we only merge when that member's
           first-half part is empty (e.g. a padding copy). *)
        let mb_choice =
          if fh_class.(c.members.(1)) = -1 then Some (0, 1)
          else if fh_class.(c.members.(0)) = -1 then Some (1, 0)
          else None
        in
        let sh0 = sh_of c 0 and sh1 = sh_of c 1 in
        let candidate =
          match mb_choice with
          | None -> None
          | Some roles ->
            if sh0 = sh1 && sh0 >= 0 then None
            else
              Option.map
                (fun entry -> (roles, entry))
                (List.find_opt
                   (fun (color, _, damaged) ->
                     !color <> None
                     && (sh0 < 0 || not (List.mem sh0 !damaged))
                     && (sh1 < 0 || not (List.mem sh1 !damaged)))
                   !freed)
        in
        match candidate with
        | Some ((ma, mb), (color, gamma, damaged)) ->
          let freed_color = Option.get !color in
          glue c.members.(ma) (fcolor c ma) (fun () -> gamma);
          glue c.members.(mb) freed_color (fun () -> gamma);
          color := None;
          damaged := List.filter (fun x -> x >= 0) [ sh0; sh1 ] @ !damaged
        | None ->
          let gamma = next_fresh () in
          let repair = tuple_repairs (fun () -> gamma) in
          glue c.members.(0) gamma no_repair;
          glue c.members.(1) (fcolor c 1) (repair (sh_of c 1)))
      !unpaired;
    (* Apply gluings, then repair: an outside dipath wearing a glued path's
       new color and conflicting with it moves to its gluing's repair
       color. *)
    List.iter (fun (j, color, _) -> final.(through.(j)) <- color) !gluings;
    List.iter
      (fun (j, color, repair) ->
        let glued_path = Instance.path padded through.(j) in
        for i = 0 to n_padded - 1 do
          if final.(i) = color && i <> through.(j) then begin
            let q = Instance.path padded i in
            if (not (Dipath.mem_arc q ab)) && Dipath.shares_arc q glued_path then begin
              (* [repair () < 0] marks a gluing that cannot be damaged by
                 an {e unrepaired} outside path (fixed points, fresh-color
                 wearers); a clash with an already-repaired path can still
                 land here on multiset families — the final sweep resolves
                 those. *)
              let r = repair () in
              if r >= 0 then begin
                Metrics.incr c_repairs;
                final.(i) <- r
              end
            end
          end
        done)
      !gluings;
    (* Residual-conflict sweep.  The per-class repair above covers every
       situation the (repaired) proof accounts for; any conflict that still
       survives — possible only in adversarial overlap patterns the paper's
       Facts do not cover — is fixed by recoloring one involved outside
       dipath with the smallest color valid for it.  This guarantees a valid
       assignment always; the bound is then checked by callers/tests rather
       than assumed. *)
    (* Smallest color used by none of the victim's conflicting paths,
       deduplicating via a stamp array over the CSR index (the answer is at
       most the number of conflicts, so a family-sized table suffices). *)
    let seen = Array.make n_padded (-1) in
    let forbidden = Array.make (n_padded + 1) (-1) in
    let sweep_gen = ref 0 in
    let smallest_free_for victim =
      incr sweep_gen;
      let g = !sweep_gen in
      Array.iter
        (fun arc ->
          Instance.paths_through_iter padded arc (fun q ->
              if q <> victim && seen.(q) <> g then begin
                seen.(q) <- g;
                let c = final.(q) in
                if c <= n_padded then forbidden.(c) <- g
              end))
        (Dipath.arc_array (Instance.path padded victim));
      let rec first c = if forbidden.(c) = g then first (c + 1) else c in
      first 0
    in
    let rec sweep guard =
      if guard > 4 * n_padded then
        failwith "Theorem6: repair sweep failed to converge"
      else
        match Assignment.first_conflict padded final with
        | None -> ()
        | Some (i, j, _arc) ->
          (* Never recolor a through path: they pairwise conflict on the
             split arc and carry distinct colors, so at least one of the two
             is outside. *)
          let victim =
            if Dipath.mem_arc (Instance.path padded i) ab then j else i
          in
          let c = smallest_free_for victim in
          if c >= n_sub_colors + !fresh then fresh := c - n_sub_colors + 1;
          Metrics.incr c_sweep;
          final.(victim) <- c;
          sweep (guard + 1)
    in
    Trace.with_span "thm6.residual_sweep" (fun () -> sweep 0);
    let assignment = Array.sub final 0 n_orig in
    (match Assignment.first_conflict inst assignment with
    | None -> ()
    | Some (i, j, arc) ->
      failwith
        (Printf.sprintf
           "Theorem6: internal error, conflict between paths %d and %d on arc %d"
           i j arc));
    let n_colors = Assignment.n_wavelengths (Assignment.normalize assignment) in
    Metrics.observe h_slack (upper_bound pi0 - n_colors);
    ( assignment,
      {
        pi = pi0;
        split_arc = ab;
        cycle_type;
        fresh_colors = n_sub_colors - pi0 + !fresh;
        n_colors;
      } )
  end

let color_with_stats ?(check = true) inst =
  if check then check_hypotheses ~exact_one:true (Instance.dag inst);
  if Trace.enabled () then
    Trace.with_span
      ~args:[ ("paths", Trace.Int (Instance.n_paths inst)) ]
      "thm6.split_and_glue"
      (fun () -> split_and_glue ~subcolor:Theorem1.color inst)
  else split_and_glue ~subcolor:Theorem1.color inst

let color ?check inst = fst (color_with_stats ?check inst)
