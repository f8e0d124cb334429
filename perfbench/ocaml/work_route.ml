(* Workload `route`: what `wl route` does minus printing, as a batch job on
   one thread in a closed loop.  One op parses the instance and request
   texts, runs Routing.select (k-shortest, bottleneck seed, local search,
   lower bound), builds the instance and solves it.  No serve layer runs. *)

open Wl_core
module Prng = Wl_util.Prng
module Clock = Wl_obs.Clock
module Dag = Wl_dag.Dag
module Dipath = Wl_digraph.Dipath
open Samples

let n = 1600
let n_requests = 200
let k = 4
let pool_size = 96

(* The network is the route/n=1600 bench arm's internal-cycle-free
   G(n, 8/n) DAG, the same on every seed; the seed draws the traffic.  On
   seeded DAGs the select time moves by a third from one DAG to the next,
   which would swamp any change between two runs, and each DAG costs about
   12 s to generate. *)
let topology_seed = 20260808 + n

type job = { inst_text : string; req_text : string }

(* The pool: 96 sets of 200 uniform requests over the network.  The program
   receives them only as text. *)
let generate seed =
  let dag = Wl_netgen.Generators.gnp_no_internal_cycle (Prng.create topology_seed) n (8.0 /. float_of_int n) in
  let inst_text = Serial.to_string (Instance.make dag []) in
  let rng = Prng.create seed in
  Array.init pool_size (fun _ ->
      { inst_text; req_text = Routing.requests_to_string (Wl_netgen.Traffic.uniform rng dag n_requests) })

exception Op_failed of string

let ok what = function
  | Ok v -> v
  | Error e -> raise (Op_failed (what ^ ": " ^ Error.to_string e))

type answer = {
  dag : Dag.t;
  reqs : Routing.request list;
  sel : Routing.selection;
  inst : Instance.t;
  report : Solver.report;
}

let parse job =
  let inst = ok "instance" (Serial.of_string job.inst_text) in
  let reqs = ok "requests" (Routing.requests_of_string job.req_text) in
  (Instance.dag inst, reqs)

let op job =
  let dag, reqs = parse job in
  let sel = ok "select" (Routing.select ~k dag reqs) in
  let inst = Routing.instance_of_selection dag sel in
  { dag; reqs; sel; inst; report = Solver.solve inst }

(* Closed loop for [seconds] of op time.  Checks run between ops with the
   window clock stopped, so they never count as op time. *)
type loop = {
  samples : Samples.t;
  mutable attempted : int;
  mutable failed : int;
  mutable issues : string list;
  first : (int * int) option array;  (** per pool entry: first (w, max_load - bound) *)
}

let new_loop () =
  { samples = Samples.create (); attempted = 0; failed = 0; issues = []; first = Array.make pool_size None }

(* Answer quality is averaged over every pool entry, each counted once
   (see [answer_rest]), so it does not depend on how many ops a run gets
   through. *)
let quality l =
  let got = List.filter_map Fun.id (Array.to_list l.first) in
  ( Samples.mean (List.map (fun (w, _) -> float_of_int w) got),
    Samples.mean (List.map (fun (_, g) -> float_of_int g) got),
    List.length got )

let note_failure l msg =
  l.failed <- l.failed + 1;
  if List.length l.issues < 8 then l.issues <- msg :: l.issues

let check l ~opid ~entry a =
  match Checks.route ~dag:a.dag ~requests:a.reqs ~sel:a.sel ~inst:a.inst ~report:a.report with
  | issue :: _ -> note_failure l (Printf.sprintf "op %d: %s" opid issue)
  | [] -> (
    let q = (a.report.Solver.n_wavelengths, a.sel.Routing.max_load - a.sel.Routing.lower_bound) in
    match l.first.(entry) with
    | None -> l.first.(entry) <- Some q
    | Some q0 ->
      (* the pipeline is deterministic: the same job, the same answer *)
      if q <> q0 then note_failure l (Printf.sprintf "op %d: entry %d answered differently" opid entry))

let run_loop ~pool ~seconds ?(traced = fun _ _ -> None) l =
  let budget = int_of_float (seconds *. 1e9) in
  let active = ref 0 and i = ref 0 in
  while !active < budget do
    let entry = !i mod Array.length pool in
    let job = pool.(entry) in
    let opid = l.attempted in
    l.attempted <- l.attempted + 1;
    incr i;
    let t0 = Clock.now_ns () in
    let r =
      match traced opid job with
      | Some r -> Ok r
      | None -> ( try Ok (op job) with Op_failed m -> Error m)
    in
    let dt = Clock.now_ns () - t0 in
    active := !active + dt;
    match r with
    | Error m -> note_failure l m
    | Ok a ->
      Samples.push l.samples ~end_ns:!active ~lat_ns:dt;
      check l ~opid ~entry a
  done;
  !active

(* After the window, with no clock running: answers (and checks) each pool
   entry the window did not reach. *)
let answer_rest ~pool l =
  Array.iteri
    (fun entry job ->
      if l.first.(entry) = None then begin
        let opid = l.attempted in
        l.attempted <- l.attempted + 1;
        match op job with
        | a -> check l ~opid ~entry a
        | exception Op_failed m -> note_failure l m
      end)
    pool

let peak_rss_self () = Option.value ~default:nan (Daemon.vm_hwm_mib "self")

(* One set-up per run: generating the network dominates it and takes about
   12 s, so repeating it for a median would double the run. *)
let measured ~seed ~seconds =
  let t0 = Clock.now_ns () in
  let pool = generate seed in
  let setup_s = float_of_int (Clock.now_ns () - t0) /. 1e9 in
  (* warm-up: one op per pool entry would take seconds; two suffice for
     the allocator and the code to settle *)
  ignore (run_loop ~pool ~seconds:0.25 (new_loop ()));
  let l = new_loop () in
  let active = run_loop ~pool ~seconds l in
  let s = Samples.summarize [ (0, active + 1, l.samples) ] in
  let timed_ops = l.attempted in
  answer_rest ~pool l;
  let w_mean, gap_mean, entries = quality l in
  let q name (x : Samples.quantile) =
    metric name "us" x.value
      ~note:(Printf.sprintf "%d samples, %d beyond" x.samples x.beyond)
  in
  let ops = l.attempted in
  {
    attempted = ops;
    failed = l.failed;
    issues = List.rev l.issues;
    context = [ ("pool", string_of_int pool_size); ("n", string_of_int n);
                ("requests", string_of_int n_requests); ("k", string_of_int k);
                ("threads", "1") ];
    metrics =
      [
        metric "setup_s" "s" setup_s ~note:"1 set-up";
        metric "ops_per_s" "op/s" s.ops_per_s ~note:(Printf.sprintf "%d ops in %.2f s" s.ops s.window_s);
        q "latency_p50_us" s.p50_us;
        q "latency_p90_us" s.p90_us;
        q "latency_p99_us" s.p99_us;
        metric "error_ratio" "ratio" (float_of_int l.failed /. float_of_int (max 1 ops));
        metric "wavelengths_mean" "count" w_mean
          ~note:(Printf.sprintf "over %d pool entries, %d answered after the window" entries (ops - timed_ops));
        metric "load_gap_mean" "count" gap_mean;
        metric "peak_rss_mb" "MiB" (peak_rss_self ());
      ];
    lines = [];
  }

(* ------------------------------------------------------------ traced run

   Per op: the real calls as children of the op span (parse, select,
   instance, solve), then replays outside it: Routing.k_shortest per
   request, select's seed loop with Routing.bottleneck_path over a load
   array charged here (its seed load must equal the selection's), and
   Routing.lower_bound (must equal the selection's bound).  The search
   phase has no public entry, so its time is select minus the other three. *)

let replay_seed dag reqs =
  let load = Array.make (max 1 (Dag.n_arcs dag)) 0 in
  List.iter
    (fun (x, y) ->
      match Routing.bottleneck_path dag load x y with
      | Some p -> List.iter (fun a -> load.(a) <- load.(a) + 1) (Dipath.arcs p)
      | None -> ())
    reqs;
  Array.fold_left max 0 load

type trace_acc = { mutable alts : int; mutable swaps : int; mutable rounds : int; mutable reqs : int;
                   mutable t1 : int; mutable solves : int; mutable replay_issues : string list }

let traced_op sp acc opid job =
  let sp_ name parent f = Spans.span sp ~op:opid ~parent name f in
  let root = Spans.start sp ~op:opid ~parent:(-1) "op" in
  let dag, reqs = sp_ "serial.parse" root (fun () -> parse job) in
  let sel = sp_ "routing.select" root (fun () -> ok "select" (Routing.select ~k dag reqs)) in
  let inst = sp_ "routing.instance" root (fun () -> Routing.instance_of_selection dag sel) in
  let report = sp_ "solver.solve" root (fun () -> Solver.solve inst) in
  Spans.stop sp root;
  sp_ "routing.k_shortest" root (fun () -> List.iter (fun (x, y) -> ignore (Routing.k_shortest ~k dag x y)) reqs);
  let seed_load = sp_ "routing.seed" root (fun () -> replay_seed dag reqs) in
  let lb = sp_ "routing.lower_bound" root (fun () -> Routing.lower_bound dag reqs) in
  if seed_load <> sel.Routing.seed_load then
    acc.replay_issues <- Printf.sprintf "op %d: replayed seed load %d, selection says %d" opid seed_load sel.Routing.seed_load :: acc.replay_issues;
  if lb <> sel.Routing.lower_bound then
    acc.replay_issues <- Printf.sprintf "op %d: replayed lower bound %d, selection says %d" opid lb sel.Routing.lower_bound :: acc.replay_issues;
  acc.alts <- acc.alts + sel.Routing.n_alternatives;
  acc.swaps <- acc.swaps + sel.Routing.swaps;
  acc.rounds <- acc.rounds + sel.Routing.rounds;
  acc.reqs <- acc.reqs + List.length reqs;
  acc.solves <- acc.solves + 1;
  if report.Solver.method_used = Solver.Theorem_1 then acc.t1 <- acc.t1 + 1;
  { dag; reqs; sel; inst; report }

(* A traced run's span budget (about ten spans per op). *)
let max_ops = 5000

let traced ~dir ~seed ~seconds =
  let t0 = Clock.now_ns () in
  let pool = generate seed in
  let setup_s = float_of_int (Clock.now_ns () - t0) /. 1e9 in
  ignore (run_loop ~pool ~seconds:0.25 (new_loop ()));
  let half = seconds /. 2. in
  let untraced = new_loop () in
  let u_active = run_loop ~pool ~seconds:half untraced in
  let sp = Spans.create () in
  let acc = { alts = 0; swaps = 0; rounds = 0; reqs = 0; t1 = 0; solves = 0; replay_issues = [] } in
  let l = new_loop () in
  let traced opid job = if opid >= max_ops then None else Some (traced_op sp acc opid job) in
  ignore (run_loop ~pool ~seconds:half ~traced l);
  let agg = Spans.aggregate sp in
  let ops = float_of_int acc.solves in
  let tot name = (agg name).Spans.total_ns /. ops in
  let words name = (agg name).Spans.words /. ops in
  let e2e = tot "op" in
  let untraced_ns = float_of_int u_active /. float_of_int (max 1 (Samples.length untraced.samples)) in
  let search = tot "routing.select" -. tot "routing.k_shortest" -. tot "routing.seed" -. tot "routing.lower_bound" in
  let stages =
    [ ("serial.parse", tot "serial.parse"); ("routing.k_shortest", tot "routing.k_shortest");
      ("routing.seed", tot "routing.seed"); ("routing.lower_bound", tot "routing.lower_bound");
      ("routing.search", search); ("routing.instance", tot "routing.instance"); ("solver.solve", tot "solver.solve") ]
  in
  let lines, unattributed = Samples.attribution ~e2e stages in
  let trace_path = Filename.concat dir "trace.json" in
  let issues = ref (List.rev_append acc.replay_issues (List.rev l.issues)) in
  (match Spans.write_chrome sp trace_path with Ok _ -> () | Error m -> issues := ("chrome trace invalid: " ^ m) :: !issues);
  let ns name v = metric name "ns" v in
  let extra_alts = float_of_int (acc.alts - acc.reqs) in
  {
    attempted = untraced.attempted + l.attempted;
    failed = untraced.failed + l.failed + List.length acc.replay_issues;
    issues = !issues @ untraced.issues;
    context = [ ("pool", string_of_int pool_size); ("n", string_of_int n); ("requests", string_of_int n_requests);
                ("k", string_of_int k); ("threads", "1"); ("traced_ops", string_of_int acc.solves);
                ("setup_s", Printf.sprintf "%.3f" setup_s) ];
    metrics =
      [ ns "serial.parse_ns" (tot "serial.parse");
        ns "routing.k_shortest_ns" (tot "routing.k_shortest");
        metric "routing.k_shortest_minor_words" "count" (words "routing.k_shortest");
        metric "routing.alternatives" "count" (float_of_int acc.alts /. ops) ~note:"per op, seeds included";
        ns "routing.seed_ns" (tot "routing.seed");
        metric "routing.seed_minor_words" "count" (words "routing.seed");
        ns "routing.lower_bound_ns" (tot "routing.lower_bound");
        metric "routing.lower_bound_minor_words" "count" (words "routing.lower_bound");
        ns "routing.select_ns" (tot "routing.select");
        metric "routing.select_minor_words" "count" (words "routing.select");
        metric "routing.search_ns" "ns" search ~note:"select - k-shortest - seed - bound";
        metric "routing.swaps" "count" (float_of_int acc.swaps /. ops);
        metric "routing.rounds" "count" (float_of_int acc.rounds /. ops);
        metric "routing.swap_yield" "ratio"
          (if acc.rounds = 0 || extra_alts <= 0. then 0. else float_of_int acc.swaps /. (float_of_int acc.rounds /. ops *. extra_alts))
          ~note:"swaps / (rounds x (alternatives - requests))";
        ns "solver.solve_ns" (tot "solver.solve");
        metric "solver.solve_minor_words" "count" (words "solver.solve");
        metric "solver.theorem1_ratio" "ratio" (float_of_int acc.t1 /. ops);
        metric "traced_op_ns" "ns" e2e ~note:(Printf.sprintf "%d traced ops" acc.solves);
        metric "unattributed_ns" "ns" unattributed;
        metric "trace_overhead_ratio" "ratio" ((e2e -. untraced_ns) /. untraced_ns)
          ~note:(Printf.sprintf "untraced e2e %.1f ns" untraced_ns) ]
      @ Samples.shares ~e2e stages;
    lines = lines @ [ "chrome trace: " ^ trace_path ];
  }
