(* Workload `serve-churn`: client ops through a real `wl wld --shards 1`
   child process on a unix socket.  2 connections on 2 threads, each a
   closed loop; 200 tenants split across them, each a round-robin add/remove churn (text codec) on a
   48-vertex rooted tree with a 64-dipath pool.  One op is one
   Client.add_path or Client.remove_path: a small frame, so per-frame fixed
   cost (Proto, Wire, Server threads, Shard handoff) dominates. *)

open Wl_core
module Prng = Wl_util.Prng
module Clock = Wl_obs.Clock
module Client = Wl_serve.Client
module Proto = Wl_serve.Proto
module Shard = Wl_serve.Shard
module Wire = Wl_serve.Wire
module Engine = Wl_engine.Engine
module Dipath = Wl_digraph.Dipath
open Samples

exception Setup_failed of string

let or_setup what = function
  | Ok v -> v
  | Error e -> raise (Setup_failed (what ^ ": " ^ Error.to_string e))

(* ---------------------------------------------------------------- inputs *)

let churn_tenants = 200
let churn_conns = 2
let tree_n = 48
let pool_n = 64

(* Above this many live paths a tenant only removes, so session size stays
   stationary however long the run; below it the mix is 60/40 add/remove. *)
let live_cap = 32

type tenant = {
  name : string;
  base : Instance.t;  (** the tenant's tree, no paths *)
  pool : int list array;  (** the tenant's 64 routed dipaths *)
  rng : Prng.t;
  live : int array;
  mutable n_live : int;
  mutable sent : int;
}

(* Every tenant has its own tree and pool, so means over tenants do not
   hang on one draw of the topology. *)
let churn_inputs seed =
  let rng = Prng.create seed in
  Array.init churn_tenants (fun i ->
      let r = Prng.split rng in
      (* a rooted tree has no internal cycle, so every report must read w = pi *)
      let dag = Wl_netgen.Generators.random_rooted_tree r tree_n in
      let paths = or_setup "route churn pool" (Routing.route_shortest dag (Wl_netgen.Traffic.uniform r dag pool_n)) in
      {
        name = Printf.sprintf "t%04d" i;
        base = Instance.make dag [];
        pool = Array.of_list (List.map Dipath.vertices paths);
        rng = r;
        live = Array.make live_cap 0;
        n_live = 0;
        sent = 0;
      })

type churn_op = Add of int list | Remove of int * int  (** live index, path id *)

let next_churn t =
  if t.n_live = 0 || (t.n_live < live_cap && Prng.bernoulli t.rng 0.6) then
    Add t.pool.(Prng.int t.rng (Array.length t.pool))
  else
    let i = Prng.int t.rng t.n_live in
    Remove (i, t.live.(i))

let churn_req t = function
  | Add vertices -> Proto.Add_path { tenant = t.name; vertices }
  | Remove (_, id) -> Proto.Remove_path { tenant = t.name; id }

(* Folds an accepted op into the tenant's view of its live paths. *)
let commit t op id =
  t.sent <- t.sent + 1;
  match op with
  | Add _ ->
    t.live.(t.n_live) <- id;
    t.n_live <- t.n_live + 1
  | Remove (i, _) ->
    t.n_live <- t.n_live - 1;
    t.live.(i) <- t.live.(t.n_live)

(* ---------------------------------------------------------------- daemon *)

type rig = { daemon : Daemon.t; clients : Client.t array }

let connect d n = Array.init n (fun i -> or_setup "connect" (Client.connect ~seed:(i + 1) d.Daemon.addr))

let teardown rig =
  Array.iter Client.close rig.clients;
  Daemon.stop rig.daemon

(* ---------------------------------------------------------------- failure
   accounting shared by the loops *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable issues : string list;
  m : Mutex.t;
}

let new_tally () = { attempted = 0; failed = 0; issues = []; m = Mutex.create () }

let fail_n tally n msg =
  Mutex.lock tally.m;
  tally.failed <- tally.failed + n;
  tally.attempted <- tally.attempted + n;
  if List.length tally.issues < 8 then tally.issues <- msg :: tally.issues;
  Mutex.unlock tally.m

(* A failed check fails the op it belongs to, already counted as attempted. *)
let check tally issues =
  if issues <> [] then begin
    Mutex.lock tally.m;
    tally.failed <- tally.failed + 1;
    List.iter (fun i -> if List.length tally.issues < 8 then tally.issues <- i :: tally.issues) issues;
    Mutex.unlock tally.m
  end

let is_conn_error = function Error.Io _ -> true | _ -> false

(* A hung daemon is killed once no op completes for this long; the ops
   then fail with I/O errors and are counted, never dropped. *)
let stall_s = 10.

let watchdog d progress stop =
  Thread.create
    (fun () ->
      let last = ref (Atomic.get progress) and since = ref (Unix.gettimeofday ()) in
      while not (Atomic.get stop) do
        Thread.delay 0.1;
        let p = Atomic.get progress in
        if p <> !last then (last := p; since := Unix.gettimeofday ())
        else if Unix.gettimeofday () -. !since > stall_s then begin
          Daemon.kill d;
          Atomic.set stop true
        end
      done)
    ()

(* --------------------------------------------------------- closed loops *)

type lane = { samples : Samples.t; mutable ops : int; mutable lost_at : int option }

let new_lane () = { samples = Samples.create (); ops = 0; lost_at = None }

(* One connection's closed loop: [op] performs one call and returns [Ok ()]
   or the error.  Runs until [until] says stop; a lost connection ends the
   lane, and the caller charges the rest of the window as failed ops. *)
let run_lane ~until ~progress ~tally ~op lane =
  let stop = ref false in
  while (not !stop) && not (until ()) do
    let t0 = Clock.now_ns () in
    let r = op () in
    let dt = Clock.now_ns () - t0 in
    Atomic.incr progress;
    match r with
    | Ok () ->
      lane.ops <- lane.ops + 1;
      Samples.push lane.samples ~end_ns:(Clock.now_ns ()) ~lat_ns:dt
    | Error e ->
      fail_n tally 1 (Error.to_string e);
      if is_conn_error e then (lane.lost_at <- Some (Clock.now_ns ()); stop := true)
  done

(* Ops a lost lane would have completed in the rest of the window, at the
   rate it had reached; at least one. *)
let charge_lost tally ~w0 ~w1 lane =
  match lane.lost_at with
  | None -> ()
  | Some t ->
    let rate = float_of_int lane.ops /. (float_of_int (max 1 (t - w0)) /. 1e9) in
    let rest = int_of_float (rate *. float_of_int (max 0 (w1 - t)) /. 1e9) in
    fail_n tally (max 1 rest) "ops not done after the connection was lost"

(* A measured serve run is [segments] rounds of set-up, warm-up, window and
   drain, each against a fresh daemon, [seconds / segments] each.  A daemon
   can settle into a faster or slower scheduling state for its whole life;
   the median over segments keeps one such state from deciding the run.
   Segment [j] of seed [s] draws its inputs from seed [s * segments + j],
   so the wavelength mean covers 1000 tenants rather than 200 drawn 5 times. *)
let segments = 5

let with_watchdog d f =
  let progress = Atomic.make 0 and stop = Atomic.make false in
  let wd = watchdog d progress stop in
  Fun.protect ~finally:(fun () -> Atomic.set stop true; Thread.join wd) (fun () -> f progress)

type segment = {
  setup_s : float;
  window : int * int * Samples.t;
  rss : float;  (** after the warm-up *)
  rss_after : float;  (** after the window *)
  wavelengths : float list;  (** every tenant's, after the warm-up *)
}

let drained tally rig = match teardown rig with Ok () -> () | Error m -> fail_n tally 1 m

(* ------------------------------------------------------ serve-churn, measured *)

(* serve-churn warms up on a fixed op count and reads the daemon's peak RSS
   and every tenant's report there: sessions keep a slot for every path ever
   added, so memory after a timed window would grow with throughput, and a
   tenant's live paths after a window would depend on how many ops it got
   through.  After exactly [warm_ops_per_tenant] ops each, a tenant's paths,
   and so its wavelength count, depend on the seed alone. *)
let warm_ops_per_tenant = 100

let churn_setup ~wl ~dir ~seed =
  let inputs = churn_inputs seed in
  let d = match Daemon.start ~wl ~dir ~shards:1 with Ok d -> d | Error m -> raise (Setup_failed m) in
  let clients = connect d churn_conns in
  let sessions =
    Array.mapi
      (fun i t -> or_setup "open_session" (Client.open_session clients.(i mod churn_conns) ~tenant:t.name t.base))
      inputs
  in
  (inputs, { daemon = d; clients }, sessions)

(* The tenants of connection [c]: every [churn_conns]-th one. *)
let lane_tenants c = List.filter (fun i -> i mod churn_conns = c) (List.init churn_tenants Fun.id)

let churn_op (inputs : tenant array) sessions tenants =
  let k = ref 0 in
  let arr = Array.of_list tenants in
  fun () ->
    let i = arr.(!k mod Array.length arr) in
    incr k;
    let t = inputs.(i) and s = sessions.(i) in
    match next_churn t with
    | Add vs as op -> Result.map (fun id -> commit t op id) (Client.add_path s vs)
    | Remove (_, id) as op -> Result.map (fun () -> commit t op id) (Client.remove_path s id)

(* Every tenant's report after the warm-up: w = pi; returns each
   wavelength count. *)
let warm_wavelengths ~tally (inputs : tenant array) sessions =
  List.filter_map Fun.id
    (Array.to_list
       (Array.mapi
          (fun i t ->
            match Client.report sessions.(i) with
            | Error e -> fail_n tally 1 ("warm-up report " ^ t.name ^ ": " ^ Error.to_string e); None
            | Ok r ->
              check tally (Checks.w_equals_pi ~what:t.name r);
              Some (float_of_int r.Proto.n_wavelengths))
          inputs))

(* Every tenant's final report has w = pi and its stats count the ops sent;
   every tenth tenant's snapshot re-solves locally to the served answer. *)
let churn_final_checks ~tally (inputs : tenant array) sessions =
  Array.iteri
    (fun i t ->
      let s = sessions.(i) in
      match Client.report s with
      | Error e -> fail_n tally 1 ("final report " ^ t.name ^ ": " ^ Error.to_string e)
      | Ok r -> (
        check tally (Checks.w_equals_pi ~what:t.name r);
        (match Client.stats s with
        | Error e -> fail_n tally 1 ("stats " ^ Error.to_string e)
        | Ok st -> check tally (Checks.ops_sent ~what:t.name ~sent:t.sent st));
        if i mod 10 = 0 then
          match Client.snapshot s with
          | Error e -> fail_n tally 1 ("snapshot " ^ Error.to_string e)
          | Ok snapshot -> check tally (Checks.resolve ~what:t.name ~snapshot r)))
    inputs

let churn_segment ~wl ~dir ~seed ~seconds ~tally =
  let t0 = Clock.now_ns () in
  let inputs, rig, sessions = churn_setup ~wl ~dir ~seed in
  let setup_s = float_of_int (Clock.now_ns () - t0) /. 1e9 in
  let lanes = Array.init churn_conns (fun _ -> new_lane ()) in
  let rss = ref nan and wavelengths = ref [] and w0 = ref 0 and w1 = ref 0 in
  with_watchdog rig.daemon (fun progress ->
      let phase until =
        let ths =
          Array.init churn_conns (fun c ->
              Thread.create
                (fun () ->
                  run_lane ~until:(until lanes.(c)) ~progress ~tally
                    ~op:(churn_op inputs sessions (lane_tenants c)) lanes.(c))
                ())
        in
        Array.iter Thread.join ths
      in
      let warm_ops = warm_ops_per_tenant * churn_tenants / churn_conns in
      phase (fun lane () -> lane.ops >= warm_ops);
      rss := Option.value ~default:nan (Daemon.peak_rss_mib rig.daemon);
      if Daemon.alive rig.daemon then wavelengths := warm_wavelengths ~tally inputs sessions;
      Array.iter (fun l -> tally.attempted <- tally.attempted + l.ops; l.ops <- 0; l.samples.Samples.n <- 0) lanes;
      w0 := Clock.now_ns ();
      w1 := !w0 + int_of_float (seconds *. 1e9);
      phase (fun _ () -> Clock.now_ns () >= !w1));
  Array.iter (charge_lost tally ~w0:!w0 ~w1:!w1) lanes;
  Array.iter (fun l -> tally.attempted <- tally.attempted + l.ops) lanes;
  let alive = Daemon.alive rig.daemon in
  let rss_after = if alive then Option.value ~default:nan (Daemon.peak_rss_mib rig.daemon) else nan in
  if alive then churn_final_checks ~tally inputs sessions;
  drained tally rig;
  let samples = Samples.merge (Array.to_list (Array.map (fun l -> l.samples) lanes)) in
  { setup_s; window = (!w0, !w1, samples); rss = !rss; rss_after; wavelengths = !wavelengths }

let churn_measured ~wl ~dir ~seed ~seconds =
  let tally = new_tally () in
  let segs =
    List.init segments (fun j ->
        churn_segment ~wl ~dir ~seed:((seed * segments) + j) ~seconds:(seconds /. float_of_int segments) ~tally)
  in
  let s = Samples.summarize (List.map (fun g -> g.window) segs) in
  let median f = Samples.median (List.map f segs) in
  let quantile name (x : Samples.quantile) =
    metric name "us" x.value ~note:(Printf.sprintf "%d samples, %d beyond" x.samples x.beyond)
  in
  let warm = Printf.sprintf "the %d-op warm-up" (warm_ops_per_tenant * churn_tenants) in
  {
    attempted = tally.attempted;
    failed = tally.failed;
    issues = List.rev tally.issues;
    context =
      [ ("daemon_shards", "1"); ("connections", string_of_int churn_conns);
        ("tenants", string_of_int churn_tenants); ("codec", "text");
        ("loop", "closed, one outstanding op per connection");
        ("segments", Printf.sprintf "%d, a fresh daemon and inputs each" segments) ];
    metrics =
      [
        metric "setup_s" "s" (median (fun g -> g.setup_s)) ~note:(Printf.sprintf "median of %d set-ups" segments);
        metric "ops_per_s" "op/s" s.ops_per_s
          ~note:(Printf.sprintf "%d ops in %.2f s, median of %d slices" s.ops s.window_s s.slices);
        quantile "latency_p50_us" s.p50_us;
        quantile "latency_p90_us" s.p90_us;
        quantile "latency_p99_us" s.p99_us;
        metric "error_ratio" "ratio" (float_of_int tally.failed /. float_of_int (max 1 tally.attempted));
        metric "wavelengths_mean" "count" (Samples.mean (List.concat_map (fun g -> g.wavelengths) segs))
          ~note:("every tenant's report after each segment's " ^ warm);
        metric "peak_rss_mb" "MiB" (median (fun g -> g.rss)) ~note:("VmHWM of wld after " ^ warm);
        metric "peak_rss_after_window_mb" "MiB" (median (fun g -> g.rss_after))
          ~note:"grows with ops done: path slots are never reused";
      ];
    lines = [];
  }

(* ------------------------------------------------------------ traced run

   One thread drives the same tenants over the same connections, one op at
   a time, so replays never race the daemon.  Every request the daemon
   answers is replayed, after the op, through each layer's public functions
   in the benchmark process: the four Proto codec calls, Wire framing, a
   socketpair round trip, a private sync Shard, a private threaded 1-shard
   Shard, a loopback Client.local and a bare Engine (Replay).  Their replies
   must equal the daemon's, op by op. *)

type replicas = {
  sync : Shard.t;
  thr : Shard.t;
  local : Client.t;
  eng : Replay.t;  (** mirrors the daemon and the threaded shard *)
  eng_direct : Replay.t;  (** mirrors the sync shard and Client.local *)
  pa : Unix.file_descr;
  pb : Unix.file_descr;
}

let replicas () =
  let pa, pb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  List.iter (fun fd -> Unix.setsockopt_int fd Unix.SO_SNDBUF (1 lsl 20)) [ pa; pb ];
  {
    sync = Shard.create ~threaded:false ~shards:1 ~max_queue:1024 ();
    thr = Shard.create ~threaded:true ~shards:1 ~max_queue:1024 ();
    local = Client.local ();
    eng = Replay.create ();
    eng_direct = Replay.create ~direct:true ();
    pa;
    pb;
  }

let close_replicas r =
  ignore (Shard.drain r.sync);
  ignore (Shard.drain r.thr);
  Client.close r.local;
  Unix.close r.pa;
  Unix.close r.pb

type tracer = { sp : Spans.t option; mutable req_bytes : int; mutable rep_bytes : int }

let timed tr ~op ~parent name f =
  match tr.sp with None -> f () | Some sp -> Spans.span sp ~op ~parent name f

let socketpair_rtt r enc encr =
  let ( let* ) = Result.bind in
  let* () = Wire.write r.pa enc in
  let* _ = Wire.read r.pb in
  let* () = Wire.write r.pb encr in
  let* _ = Wire.read r.pa in
  Ok ()

(* Replays [req], whose daemon reply was [r0], through every layer and
   returns the differential's failures. *)
let replay_request r tr ~op ~parent req (r0 : Proto.reply) =
  let tm name f = timed tr ~op ~parent name f in
  let enc = tm "proto.encode_request" (fun () -> Proto.encode_request req) in
  let decoded = tm "proto.decode_request" (fun () -> Proto.decode_request enc) in
  let req' = match decoded with Ok q -> q | Error _ -> req in
  let r1 = tm "shard.sync_call" (fun () -> Shard.call r.sync req') in
  let r2 = tm "shard.threaded_call" (fun () -> Shard.call r.thr req') in
  let r3 = tm "client.local" (fun () -> Client.call r.local req) in
  let timer = { Replay.run = (fun name f -> tm name f) } in
  let re = Replay.apply ~timer r.eng req in
  let rd = Replay.apply ~timer r.eng_direct req in
  let encr = tm "proto.encode_reply" (fun () -> Proto.encode_reply r0) in
  let back = tm "proto.decode_reply" (fun () -> Proto.decode_reply encr) in
  let f1, f2 = tm "wire.frame" (fun () -> (Wire.frame enc, Wire.frame encr)) in
  let u1, u2 = tm "wire.unframe" (fun () -> (Wire.unframe f1 0, Wire.unframe f2 0)) in
  let rtt = tm "wire.socketpair_rtt" (fun () -> socketpair_rtt r enc encr) in
  tr.req_bytes <- tr.req_bytes + String.length enc;
  tr.rep_bytes <- tr.rep_bytes + String.length encr;
  let verb = Proto.verb_of_req req in
  let differ who (x : Proto.reply) =
    if Checks.same_reply r0 x then []
    else
      [ Printf.sprintf "op %d %s: %s replied %S, daemon %S" op verb who
          (Proto.encode_reply x) (Proto.encode_reply r0) ]
  in
  let codec_ok what = function Ok _ -> [] | Error e -> [ Printf.sprintf "op %d %s: %s: %s" op verb what (Error.to_string e) ] in
  (if decoded = Ok req' && Proto.encode_request req' = enc then []
   else [ Printf.sprintf "op %d %s: request does not survive the codec" op verb ])
  @ codec_ok "reply decode" back @ codec_ok "unframe" u1 @ codec_ok "unframe" u2
  @ codec_ok "socketpair" rtt
  @ differ "sync shard" r1 @ differ "threaded shard" r2 @ differ "Client.local" r3
  @ differ "bare engine" re @ differ "bare engine (direct)" rd

(* Sends one op's request for real (the op span), then replays it. *)
let traced_op r tr tally ~op client req =
  let root = match tr.sp with None -> -1 | Some sp -> Spans.start sp ~op ~parent:(-1) "op" in
  let t0 = Clock.now_ns () in
  let reply = timed tr ~op ~parent:root "client.socket" (fun () -> Client.call client req) in
  let dt = Clock.now_ns () - t0 in
  Option.iter (fun sp -> Spans.stop sp root) tr.sp;
  check tally (replay_request r tr ~op ~parent:root req reply);
  (reply, dt)

(* Replays a request in every replica without comparing: used to open the
   churn sessions the daemon already has.  [sp] records the bare engines'
   calls. *)
let mirror r sp ~op req =
  ignore (Shard.call r.sync req);
  ignore (Shard.call r.thr req);
  ignore (Client.call r.local req);
  let timer = { Replay.run = (fun name f -> Spans.span sp ~op ~parent:(-1) name f) } in
  ignore (Replay.apply ~timer r.eng req);
  ignore (Replay.apply ~timer r.eng_direct req)

let per_call agg name = let a = agg name in if a.Spans.calls = 0 then nan else a.Spans.total_ns /. float_of_int a.Spans.calls

type traced = {
  spans : Spans.t;
  ops : int;
  e2e_ns : float;  (** traced op span mean *)
  untraced_ns : float;
}

let wld_metrics client =
  match Client.daemon_stats client with
  | Error _ -> []
  | Ok d when d.Proto.d_add.Proto.l_count = 0 -> []
  | Ok d ->
    [
      metric "wld.add_p50_ns" "ns" (float_of_int d.Proto.d_add.Proto.l_p50) ~note:(Printf.sprintf "%d adds" d.Proto.d_add.Proto.l_count);
      metric "wld.add_p99_ns" "ns" (float_of_int d.Proto.d_add.Proto.l_p99);
      metric "wld.remove_p50_ns" "ns" (float_of_int d.Proto.d_remove.Proto.l_p50) ~note:(Printf.sprintf "%d removes" d.Proto.d_remove.Proto.l_count);
    ]

(* The verbs Replay times, under "engine." on the daemon's side and
   "engine_direct." on the sync side. *)
let engine_verbs = [ "add"; "remove"; "create"; "report"; "submit" ]

(* Stage means per op; they are what the traced op is made of on the path
   through the daemon.  The threaded shard call is split into the engine
   work it runs, the shard's dispatch around an engine call (sync call
   minus the sync shard's own engine work) and the handoff to the shard
   domain (the rest of the threaded call). *)
let shard_split agg ops =
  let tot name = (agg name).Spans.total_ns /. float_of_int ops in
  let engine prefix = List.fold_left (fun a v -> a +. tot (prefix ^ v)) 0. engine_verbs in
  let engine_wave = engine "engine." and engine_direct = engine "engine_direct." in
  let dispatch = tot "shard.sync_call" -. engine_direct in
  (engine_wave, dispatch, tot "shard.threaded_call" -. engine_wave -. dispatch)

let serve_stages agg ops =
  let tot name = (agg name).Spans.total_ns /. float_of_int ops in
  let engine, dispatch, handoff = shard_split agg ops in
  [
    ("proto.encode_request", tot "proto.encode_request");
    ("proto.decode_request", tot "proto.decode_request");
    ("shard.handoff", handoff);
    ("shard.dispatch", dispatch);
    ("engine", engine);
    ("proto.encode_reply", tot "proto.encode_reply");
    ("proto.decode_reply", tot "proto.decode_reply");
    ("wire.socketpair_rtt", tot "wire.socketpair_rtt");
  ]

(* [setup] holds the session opens' spans; [solves] snapshots were
   re-solved locally, [t1] of them by Theorem 1. *)
let serve_layer_metrics ~tr ~(t : traced) ~setup ~stats ~wld ~solves ~t1 =
  let agg = Spans.aggregate t.spans in
  let ops = float_of_int t.ops in
  let ns name = metric (name ^ "_ns") "ns" (per_call agg name) ~note:(Printf.sprintf "%d calls" (agg name).Spans.calls) in
  let words names = List.fold_left (fun a n -> a +. (agg n).Spans.words) 0. names /. ops in
  let engine_names = List.map (fun v -> "engine." ^ v) engine_verbs in
  let _, dispatch, handoff = shard_split agg t.ops in
  let st_ops, st_warm, st_fallbacks = stats in
  let stages = serve_stages agg t.ops in
  let lines, unattributed = Samples.attribution ~e2e:t.e2e_ns stages in
  let solve = agg "solver.solve" in
  ( [ metric "engine.add_ns" "ns" (per_call agg "engine_direct.add") ~note:"Engine.add_path";
      metric "engine.remove_ns" "ns" (per_call agg "engine_direct.remove") ~note:"Engine.remove_path";
      metric "engine.create_ns" "ns" (per_call (Spans.aggregate setup) "engine.create")
        ~note:"Engine.create of each tenant's session";
      metric "engine.submit_ns" "ns" (per_call agg "engine.submit")
        ~note:"one-op Engine.submit, as the daemon runs a lone add or remove";
      metric "engine.minor_words_per_op" "count" (words engine_names);
      metric "engine.warm_hit_ratio" "ratio" (if st_ops = 0 then nan else float_of_int st_warm /. float_of_int st_ops);
      metric "engine.fallback_solves" "count" (float_of_int st_fallbacks);
      ns "shard.sync_call";
      metric "shard.dispatch_ns" "ns" dispatch ~note:"sync call - its engine work, per op";
      ns "shard.threaded_call";
      metric "shard.handoff_ns" "ns" handoff ~note:"threaded - sync, each less its engine work, per op";
      ns "proto.encode_request"; ns "proto.decode_request"; ns "proto.encode_reply"; ns "proto.decode_reply";
      metric "proto.request_bytes" "count" (float_of_int tr.req_bytes /. ops);
      metric "proto.reply_bytes" "count" (float_of_int tr.rep_bytes /. ops);
      metric "proto.minor_words_per_op" "count"
        (words [ "proto.encode_request"; "proto.decode_request"; "proto.encode_reply"; "proto.decode_reply" ]);
      ns "wire.frame"; ns "wire.unframe"; ns "wire.socketpair_rtt";
      ns "client.local"; ns "client.socket" ]
    @ wld
    @ [ metric "solver.solve_ns" "ns" (per_call agg "solver.solve") ~note:(Printf.sprintf "%d solves" solves);
        metric "solver.solve_minor_words" "count" (solve.Spans.words /. float_of_int solves);
        metric "solver.theorem1_ratio" "ratio" (float_of_int t1 /. float_of_int solves);
        metric "traced_op_ns" "ns" t.e2e_ns ~note:(Printf.sprintf "%d traced ops" t.ops);
        metric "unattributed_ns" "ns" unattributed;
        metric "trace_overhead_ratio" "ratio" ((t.e2e_ns -. t.untraced_ns) /. t.untraced_ns)
          ~note:(Printf.sprintf "untraced e2e %.1f ns" t.untraced_ns) ]
    @ Samples.shares ~e2e:t.e2e_ns stages,
    lines )

(* A traced run's span budget: enough ops for stable means, a trace file
   of a few MB. *)
let max_spans = 60_000

let write_trace ~wl ~dir ~tally sp =
  let path = Filename.concat dir "trace.json" in
  (match Spans.write_chrome sp path with
  | Ok _ -> ()
  | Error m -> fail_n tally 1 ("chrome trace invalid: " ^ m));
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process wl [| wl; "trace-check"; path |] Unix.stdin null null in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> path
  | _ -> fail_n tally 1 "wl trace-check rejected the trace"; path

let warm_s = 2.0

(* Untraced then traced windows of [seconds / 2] each over the same op
   source; returns the spans and both e2e means. *)
let two_windows ~seconds ~tally ~progress ~(next : tracer -> int -> Proto.reply * int) =
  let half = seconds /. 2. in
  let lost = ref false in
  let window ?(len = half) tr stop_early =
    let lat = ref 0. and n = ref 0 in
    let deadline = Clock.now_ns () + int_of_float (len *. 1e9) in
    while (not !lost) && Clock.now_ns () < deadline && not (stop_early ()) do
      let reply, dt = next tr !n in
      Atomic.incr progress;
      (match reply with Error e when is_conn_error e -> lost := true | _ -> ());
      lat := !lat +. float_of_int dt;
      incr n
    done;
    tally.attempted <- tally.attempted + !n;
    (!lat /. float_of_int (max 1 !n), !n)
  in
  ignore (window ~len:warm_s { sp = None; req_bytes = 0; rep_bytes = 0 } (fun () -> false));
  let untraced, _ = window { sp = None; req_bytes = 0; rep_bytes = 0 } (fun () -> false) in
  let sp = Spans.create () in
  let tr = { sp = Some sp; req_bytes = 0; rep_bytes = 0 } in
  let traced, ops = window tr (fun () -> Spans.length sp >= max_spans) in
  if !lost then fail_n tally 1 "connection lost; the rest of the run was not done";
  (tr, { spans = sp; ops; e2e_ns = traced; untraced_ns = untraced })

let reply_issue ~what = function
  | Ok _ -> []
  | Error e -> [ Printf.sprintf "%s: %s" what (Error.to_string e) ]

let churn_traced ~wl ~dir ~seed ~seconds =
  let inputs, rig, _ = churn_setup ~wl ~dir ~seed in
  let r = replicas () in
  let setup = Spans.create () in
  Array.iteri (fun op t -> mirror r setup ~op (Proto.Open { tenant = t.name; instance = t.base })) inputs;
  let tally = new_tally () in
  let k = ref 0 in
  let next tr op =
    let i = !k mod churn_tenants in
    incr k;
    let t = inputs.(i) in
    let o = next_churn t in
    let reply, dt = traced_op r tr tally ~op rig.clients.(i mod churn_conns) (churn_req t o) in
    (match reply with
    | Ok (Proto.R_path id) | Ok (Proto.R_removed id) -> commit t o id
    | Error e -> check tally [ Printf.sprintf "op %d: %s" op (Error.to_string e) ]
    | _ -> check tally [ Printf.sprintf "op %d: unexpected reply" op ]);
    (reply, dt)
  in
  let tr, t = with_watchdog rig.daemon (fun progress -> two_windows ~seconds ~tally ~progress ~next) in
  (* final state: reports agree across the daemon and every replica; each
     live path's colour agrees within the daemon's side (threaded shard,
     bare engine) and within the sync side (sync shard, Client.local, direct
     bare engine), see Replay; sampled snapshots re-solve to the served pi
     and w *)
  let solves = ref 0 and t1 = ref 0 in
  Array.iteri
    (fun i ten ->
      let client = rig.clients.(i mod churn_conns) in
      let agree what req =
        let r0 = Client.call client req in
        check tally (reply_issue ~what r0);
        List.iter
          (fun (who, x) ->
            if not (Checks.same_reply r0 x) then check tally [ Printf.sprintf "%s: %s disagrees with the daemon" what who ])
          [ ("bare engine", Replay.apply r.eng req); ("threaded shard", Shard.call r.thr req) ];
        (* the sync side agrees with its own replay, colours included *)
        let rs = Shard.call r.sync req in
        List.iter
          (fun (who, x) ->
            if not (Checks.same_reply rs x) then check tally [ Printf.sprintf "%s: %s disagrees with the sync shard" what who ])
          [ ("bare engine (direct)", Replay.apply r.eng_direct req); ("Client.local", Client.call r.local req) ];
        (r0, rs)
      in
      let rep, rep_sync = agree (ten.name ^ " report") (Proto.Report { tenant = ten.name }) in
      if not (Checks.same_reply rep rep_sync) then check tally [ ten.name ^ ": sync shard report differs from the daemon's" ];
      for j = 0 to ten.n_live - 1 do
        ignore (agree (ten.name ^ " colour") (Proto.Color_of { tenant = ten.name; id = ten.live.(j) }))
      done;
      (match Client.call client (Proto.Stats { tenant = ten.name }) with
      | Ok (Proto.R_stats st) -> check tally (Checks.ops_sent ~what:ten.name ~sent:ten.sent st)
      | _ -> check tally [ ten.name ^ ": no stats" ]);
      match (rep, i mod 10) with
      | Ok (Proto.R_report served), 0 -> (
        match Client.call client (Proto.Snapshot { tenant = ten.name }) with
        | Ok (Proto.R_snapshot snapshot) ->
          let local =
            Spans.span t.spans ~op:(t.ops + i) ~parent:(-1) "solver.solve" (fun () -> Solver.solve snapshot)
          in
          incr solves;
          if local.Solver.method_used = Solver.Theorem_1 then incr t1;
          if local.Solver.pi <> served.Proto.pi || local.Solver.n_wavelengths <> served.Proto.n_wavelengths then
            check tally [ ten.name ^ ": snapshot re-solve differs from the served report" ]
        | _ -> check tally [ ten.name ^ ": no snapshot" ])
      | _ -> ())
    inputs;
  let wld = wld_metrics rig.clients.(0) in
  let trace = write_trace ~wl ~dir ~tally t.spans in
  close_replicas r;
  (match teardown rig with Ok () -> () | Error m -> fail_n tally 1 m);
  let metrics, lines =
    serve_layer_metrics ~tr ~t ~setup ~stats:(Replay.stats r.eng) ~wld ~solves:!solves ~t1:!t1
  in
  {
    attempted = tally.attempted;
    failed = tally.failed;
    issues = List.rev tally.issues;
    context =
      [ ("daemon_shards", "1"); ("connections", string_of_int churn_conns); ("driver", "1 thread, one op at a time");
        ("tenants", string_of_int churn_tenants); ("codec", "text"); ("traced_ops", string_of_int t.ops) ];
    metrics;
    lines = lines @ [ "chrome trace: " ^ trace ];
  }
