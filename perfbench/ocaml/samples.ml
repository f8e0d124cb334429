(* Latency samples and the order statistics reported from them. *)

type t = { mutable ends : int array; mutable lats : int array; mutable n : int }

let create () = { ends = Array.make 4096 0; lats = Array.make 4096 0; n = 0 }

let push t ~end_ns ~lat_ns =
  if t.n = Array.length t.lats then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    t.ends <- grow t.ends;
    t.lats <- grow t.lats
  end;
  t.ends.(t.n) <- end_ns;
  t.lats.(t.n) <- lat_ns;
  t.n <- t.n + 1

let length t = t.n

let merge ts =
  let out = create () in
  List.iter
    (fun t ->
      for i = 0 to t.n - 1 do
        push out ~end_ns:t.ends.(i) ~lat_ns:t.lats.(i)
      done)
    ts;
  out

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) r))

let beyond sorted v = Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 sorted

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let max_slices = 10
let min_slice_ops = 2000

type quantile = { value : float; samples : int; beyond : int }

type summary = {
  ops : int;
  window_s : float;
  slices : int;
  ops_per_s : float;
  p50_us : quantile;
  p90_us : quantile;
  p99_us : quantile;
}

(* Each window [w0, w1) is cut into equal slices by completion time, as
   many as keep [min_slice_ops] ops in each (at most [max_slices]), so a
   p99 has 20 or more samples beyond it wherever a window holds enough ops.
   Throughput and each percentile are taken per slice, over the slices of
   every window, and the median is reported: one burst of outside load
   moves one slice, and one daemon that lands in a slow state moves one
   window.  A percentile with fewer than 10 samples beyond it in a slice is
   taken over all slices pooled instead.  [samples] and [beyond] describe
   the slice (or the pool) the value comes from. *)
let summarize windows =
  let slices =
    List.concat_map
      (fun (w0, w1, t) ->
        let inside = ref 0 in
        for i = 0 to t.n - 1 do
          if t.ends.(i) >= w0 && t.ends.(i) < w1 then incr inside
        done;
        let k = max 1 (min max_slices (!inside / min_slice_ops)) in
        let span = float_of_int (w1 - w0) in
        let buckets = Array.make k [] in
        for i = 0 to t.n - 1 do
          let e = t.ends.(i) in
          if e >= w0 && e < w1 then begin
            let s = min (k - 1) (int_of_float (float_of_int (e - w0) /. span *. float_of_int k)) in
            buckets.(s) <- float_of_int t.lats.(i) /. 1000. :: buckets.(s)
          end
        done;
        let slice_s = span /. 1e9 /. float_of_int k in
        Array.to_list
          (Array.map
             (fun l ->
               let a = Array.of_list l in
               Array.sort compare a;
               (a, slice_s))
             buckets))
      windows
  in
  let pooled =
    lazy
      (let a = Array.concat (List.map fst slices) in
       Array.sort compare a;
       a)
  in
  let q p =
    let per = List.map (fun (a, _) -> percentile a p) slices in
    let m = median per in
    let a, _ =
      List.fold_left
        (fun (best, d) (a, _) ->
          let d' = Float.abs (percentile a p -. m) in
          if d' < d then (a, d') else (best, d))
        ([||], infinity) slices
    in
    let b = beyond a (percentile a p) in
    if b >= 10 then { value = m; samples = Array.length a; beyond = b }
    else
      (* too few samples beyond it in a slice: take it over the pooled run *)
      let all = Lazy.force pooled in
      let v = percentile all p in
      { value = v; samples = Array.length all; beyond = beyond all v }
  in
  let ops = List.fold_left (fun acc (a, _) -> acc + Array.length a) 0 slices in
  {
    ops;
    window_s = List.fold_left (fun acc (w0, w1, _) -> acc +. (float_of_int (w1 - w0) /. 1e9)) 0. windows;
    slices = List.length slices;
    ops_per_s = median (List.map (fun (a, s) -> float_of_int (Array.length a) /. s) slices);
    p50_us = q 0.5;
    p90_us = q 0.9;
    p99_us = q 0.99;
  }

(* What a workload run hands back to the printer. *)
type metric = { name : string; unit : string; value : float; note : string }

let metric ?(note = "") name unit value = { name; unit; value; note }

type outcome = {
  attempted : int;
  failed : int;
  issues : string list;  (** failed answer checks, first few kept *)
  context : (string * string) list;
  metrics : metric list;  (** every metric the run measured, printed by name *)
  lines : string list;  (** extra report lines (attribution table) *)
}

(* Per-op stage means against the traced e2e mean; the remainder is what no
   stage explains. *)
let attribution ~e2e stages =
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. stages in
  let line (n, v) = Printf.sprintf "  %-24s %12.1f ns  %6.1f%%" n v (100. *. v /. e2e) in
  ( (Printf.sprintf "attribution (mean per op; traced e2e %.1f ns):" e2e :: List.map line stages)
    @ [ line ("unattributed", e2e -. sum) ],
    e2e -. sum )

let all_stage_names =
  [ "serial.parse"; "routing.k_shortest"; "routing.seed"; "routing.lower_bound"; "routing.search";
    "routing.instance"; "solver.solve"; "proto.encode_request"; "proto.decode_request"; "shard.handoff";
    "shard.dispatch"; "engine"; "proto.encode_reply"; "proto.decode_reply"; "wire.socketpair_rtt" ]

(* Every workload reports a share for every stage name, 0 where the stage
   does not run, so the per-layer set is the same on each workload. *)
let shares ~e2e stages =
  List.map
    (fun n -> metric ("share." ^ n) "ratio" (match List.assoc_opt n stages with Some v -> v /. e2e | None -> 0.))
    all_stage_names
