open Wl_core
module Engine = Wl_engine.Engine
module Ctx = Wl_obs.Ctx
module Trace = Wl_obs.Trace
module Clock = Wl_obs.Clock
module Flight = Wl_obs.Flight
module Hdr = Wl_obs.Hdr

(* FNV-1a with the offset basis folded into OCaml's 63-bit int range. *)
let shard_of_tenant ~shards tenant =
  let h = ref 0x4bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    tenant;
  (!h land max_int) mod shards

type job = {
  req : Proto.req;
  ctx : Ctx.t;  (** propagated trace context, [Ctx.none] when untraced *)
  enq_us : float;  (** enqueue stamp, feeds the [serve.queue_wait] span *)
  mutable reply : Proto.reply option;
      (** stored by the wave that ran the job; the shard mutex, taken by the
          wave's runner after the wave and by the waiter before it reads,
          publishes it *)
}

type shard = {
  sid : int;
  m : Mutex.t;
  nonfull : Condition.t;
  wave_done : Condition.t;  (** broadcast whenever a wave ends *)
  mutable queue : job list;  (** newest first *)
  mutable queue_len : int;
  mutable stopping : bool;
  mutable busy : bool;  (** a caller is running a wave of this shard *)
  sessions : (string, Engine.session) Hashtbl.t;
  roster_m : Mutex.t;
  mutable roster : (string * Engine.session) list;
      (** mirror of [sessions], maintained on Open/Evict.  The Hashtbl
          belongs to whoever holds [busy] (it is mutated outside [m]), so
          introspection requests answered on other threads read this
          mirror under its own lock instead of racing the table. *)
  n_sessions : int Atomic.t;
}

type t = {
  shards : shard array;
  max_queue : int;
  flight_capacity : int;
  threaded : bool;
  drain_m : Mutex.t;
  mutable drained : (string * Engine.session) list option;
}

(* --- introspection (dstats / dhealth / tracedump) --------------------------- *)

(* Served on the caller's thread, never queued behind engine work: the
   figures come from the roster mirror plus lock-free read-backs (HDR
   atomics, stats ints).  Racing a concurrent op can skew one sample —
   monitoring-grade, never corrupting. *)
let roster_snapshot t =
  Array.to_list t.shards
  |> List.concat_map (fun sh ->
         Mutex.lock sh.roster_m;
         let r = sh.roster in
         Mutex.unlock sh.roster_m;
         List.rev_map (fun (tenant, s) -> (sh.sid, tenant, s)) r)
  |> List.sort (fun (_, a, _) (_, b, _) -> String.compare a b)

let rollup_of_hdr h =
  let s = Hdr.snapshot h in
  let ex_ns, ex_trace =
    match Hdr.exemplar h with Some (v, tr) -> (v, tr) | None -> (0, 0)
  in
  {
    Proto.l_count = s.Hdr.count;
    l_p50 = s.Hdr.p50;
    l_p90 = s.Hdr.p90;
    l_p99 = s.Hdr.p99;
    l_p999 = s.Hdr.p999;
    l_max = s.Hdr.max;
    l_ex_ns = ex_ns;
    l_ex_trace = ex_trace;
  }

let dstats t : Proto.reply =
  let sessions = roster_snapshot t in
  (* Daemon-wide quantiles come from merging every session's histogram —
     not from averaging per-session quantiles, which would be wrong. *)
  let add = Hdr.create () and remove = Hdr.create () in
  let tenants =
    List.map
      (fun (sid, tenant, s) ->
        Hdr.merge_into ~dst:add (Engine.add_hdr s);
        Hdr.merge_into ~dst:remove (Engine.remove_hdr s);
        let h = Engine.health s in
        let st = Engine.stats s in
        {
          Proto.r_tenant = tenant;
          r_shard = sid;
          r_paths = Engine.n_live_paths s;
          r_pi = Engine.pi s;
          r_ops = st.Engine.ops;
          r_add_p50 = h.Engine.add_latency.Hdr.p50;
          r_add_p99 = h.Engine.add_latency.Hdr.p99;
          r_healthy = h.Engine.healthy;
        })
      sessions
  in
  Ok
    (Proto.R_dstats
       {
         Proto.d_shards = Array.length t.shards;
         d_sessions = List.length sessions;
         d_add = rollup_of_hdr add;
         d_remove = rollup_of_hdr remove;
         d_tenants = tenants;
       })

let dhealth t : Proto.reply =
  let sessions = roster_snapshot t in
  let unhealthy =
    List.filter_map
      (fun (_, tenant, s) ->
        if (Engine.health s).Engine.healthy then None else Some tenant)
      sessions
  in
  Ok
    (Proto.R_dhealth
       {
         Proto.dh_healthy = unhealthy = [];
         dh_sessions = List.length sessions;
         dh_unhealthy = unhealthy;
       })

let trace_dump t ~last : Proto.reply =
  let rings = List.map (fun (_, _, s) -> Engine.flight s) (roster_snapshot t) in
  let last = if last <= 0 then None else Some last in
  Ok (Proto.R_trace (Flight.merged_chrome ?last rings))

(* --- per-request execution (runs on the owning shard) ---------------------- *)

let no_session tenant = Error.Invalid_op ("no open session for tenant " ^ tenant)

let with_session sh tenant k =
  match Hashtbl.find_opt sh.sessions tenant with
  | None -> Error (no_session tenant)
  | Some s -> k s

let wire_outcomes (b : Engine.batch) =
  Proto.R_outcomes
    {
      outcomes = Array.map (Result.map Proto.outcome_of_engine) b.Engine.outcomes;
      after = Proto.report_of_solver b.Engine.batch_report;
    }

let handle_one t sh (req : Proto.req) : Proto.reply =
  match req with
  | Proto.Hello v ->
    if v = Proto.version then Ok (Proto.R_hello Proto.version)
    else Error (Error.Unsupported_version v)
  | Proto.Ping -> Ok Proto.R_pong
  | Proto.Shutdown -> Ok Proto.R_bye
  | Proto.Open { tenant; instance } ->
    let s = Engine.create ~flight_capacity:t.flight_capacity instance in
    Flight.set_label (Engine.flight s) tenant;
    if not (Hashtbl.mem sh.sessions tenant) then Atomic.incr sh.n_sessions;
    Hashtbl.replace sh.sessions tenant s;
    Mutex.lock sh.roster_m;
    sh.roster <- (tenant, s) :: List.remove_assoc tenant sh.roster;
    Mutex.unlock sh.roster_m;
    Ok (Proto.R_open (Proto.report_of_solver (Engine.report s)))
  | Proto.Add_path { tenant; vertices } ->
    with_session sh tenant (fun s ->
        Result.map (fun id -> Proto.R_path id) (Engine.add_path s vertices))
  | Proto.Remove_path { tenant; id } ->
    with_session sh tenant (fun s ->
        Result.map (fun () -> Proto.R_removed id) (Engine.remove_path s id))
  | Proto.Add_arc { tenant; tail; head } ->
    with_session sh tenant (fun s ->
        Result.map (fun a -> Proto.R_arc a) (Engine.add_arc s tail head))
  | Proto.Submit { tenant; ops } ->
    with_session sh tenant (fun s -> Ok (wire_outcomes (Engine.submit s ops)))
  | Proto.Report { tenant } ->
    with_session sh tenant (fun s ->
        Ok (Proto.R_report (Proto.report_of_solver (Engine.report s))))
  | Proto.Pi { tenant } -> with_session sh tenant (fun s -> Ok (Proto.R_pi (Engine.pi s)))
  | Proto.Color_of { tenant; id } ->
    with_session sh tenant (fun s ->
        Result.map (fun c -> Proto.R_color c) (Engine.color_of s id))
  | Proto.Stats { tenant } ->
    with_session sh tenant (fun s -> Ok (Proto.R_stats (Engine.stats s)))
  | Proto.Health { tenant } ->
    with_session sh tenant (fun s ->
        Ok (Proto.R_health (Proto.health_of_engine (Engine.health s))))
  | Proto.Snapshot { tenant } ->
    with_session sh tenant (fun s -> Ok (Proto.R_snapshot (Engine.instance s)))
  | Proto.Evict { tenant } ->
    with_session sh tenant (fun s ->
        ignore s;
        Hashtbl.remove sh.sessions tenant;
        Mutex.lock sh.roster_m;
        sh.roster <- List.remove_assoc tenant sh.roster;
        Mutex.unlock sh.roster_m;
        Atomic.decr sh.n_sessions;
        Ok Proto.R_evicted)
  | Proto.Dstats -> dstats t
  | Proto.Dhealth -> dhealth t
  | Proto.Trace_dump { last } -> trace_dump t ~last

(* --- trace-context plumbing ------------------------------------------------ *)

(* Install the propagated context as the domain-ambient one while the
   engine works, so op spans, HDR exemplars and flight records latch the
   caller's trace id; [serve.batch]/[serve.engine] spans carry it too and
   line up under the client span in a merged Chrome view. *)
let with_ctx ctx f =
  if Ctx.is_none ctx then f ()
  else begin
    (* Save/restore rather than clear: on the synchronous loopback and in
       caller-run waves the caller's own ambient context lives on this
       same domain. *)
    let prev = Ctx.current () in
    Ctx.set ctx;
    Fun.protect ~finally:(fun () -> Ctx.set prev) f
  end

let handle_traced t sh ~ctx req =
  with_ctx ctx (fun () ->
      if Ctx.is_none ctx || not (Trace.enabled ()) then handle_one t sh req
      else
        Trace.with_span "serve.batch"
          ~args:[ ("shard", Trace.Int sh.sid); ("jobs", Trace.Int 1) ]
          (fun () ->
            Trace.with_span "serve.engine"
              ~args:[ ("verb", Trace.Str (Proto.verb_of_req req)) ]
              (fun () -> handle_one t sh req)))

(* --- wave batching --------------------------------------------------------- *)

(* A tenant's slice of one submit_many wave: jobs in order, each owed
   [nops] outcomes; at most one trailing Submit job (it consumes the
   batch report, so nothing of that tenant's may run after it). *)
type run = { tenant : string; session : Engine.session; mutable jobs : (job * int) list }

let job_ops (req : Proto.req) =
  match req with
  | Proto.Add_path { vertices; _ } -> Some [ Engine.Add_path vertices ]
  | Proto.Remove_path { id; _ } -> Some [ Engine.Remove_path id ]
  | Proto.Add_arc { tail; head; _ } -> Some [ Engine.Add_arc (tail, head) ]
  | Proto.Submit { ops; _ } -> Some ops
  | _ -> None

let req_tenant (req : Proto.req) =
  match req with
  | Proto.Add_path { tenant; _ }
  | Proto.Remove_path { tenant; _ }
  | Proto.Add_arc { tenant; _ }
  | Proto.Submit { tenant; _ } -> Some tenant
  | _ -> None

let is_submit = function Proto.Submit _ -> true | _ -> false

let finish job reply = job.reply <- Some reply

let single_reply (req : Proto.req) (o : (Engine.op_outcome, Error.t) result) : Proto.reply =
  match (req, o) with
  | Proto.Add_path _, Ok (Engine.Path_added id) -> Ok (Proto.R_path id)
  | Proto.Remove_path { id; _ }, Ok (Engine.Path_removed _) -> Ok (Proto.R_removed id)
  | Proto.Add_arc _, Ok (Engine.Arc_added a) -> Ok (Proto.R_arc a)
  | _, Error e -> Error e
  | _, Ok _ -> Error (Error.Invalid_op "batch outcome shape mismatch")

let distribute run (b : Engine.batch) =
  let off = ref 0 in
  List.iter
    (fun (job, nops) ->
      let slice = Array.sub b.Engine.outcomes !off nops in
      off := !off + nops;
      match job.req with
      | Proto.Submit _ ->
        finish job
          (Ok
             (Proto.R_outcomes
                {
                  outcomes = Array.map (Result.map Proto.outcome_of_engine) slice;
                  after = Proto.report_of_solver b.Engine.batch_report;
                }))
      | req -> finish job (single_reply req slice.(0)))
    run.jobs

(* Collect the longest prefix of [wave] in which every tenant contributes
   one submit_many entry; returns the runs (wave order) and the rest. *)
let collect_runs sh wave =
  let runs = ref [] in
  let find tenant = List.find_opt (fun r -> r.tenant = tenant) !runs in
  let closed r =
    match r.jobs with (j, _) :: _ -> is_submit j.req | [] -> false
  in
  let rec go = function
    | [] -> []
    | job :: rest as jobs -> (
      match (job_ops job.req, req_tenant job.req) with
      | Some ops, Some tenant -> (
        match Hashtbl.find_opt sh.sessions tenant with
        | None ->
          finish job (Error (no_session tenant));
          go rest
        | Some session -> (
          match find tenant with
          | Some r when closed r -> jobs (* report barrier: next wave *)
          | Some r ->
            r.jobs <- (job, List.length ops) :: r.jobs;
            go rest
          | None ->
            runs := { tenant; session; jobs = [ (job, List.length ops) ] } :: !runs;
            go rest))
      | _ -> jobs (* query or admin: barrier *))
  in
  let rest = go wave in
  (List.rev_map (fun r -> r.jobs <- List.rev r.jobs; r) !runs, rest)

let mutation_prefix wave =
  match wave with
  | job :: _ -> job_ops job.req <> None && req_tenant job.req <> None
  | [] -> false

(* The first traced context in a run labels the whole engine batch: a
   wave mixes jobs from many clients, and one submit serves them all. *)
let run_ctx run =
  List.fold_left (fun acc (j, _) -> if Ctx.is_none acc then j.ctx else acc) Ctx.none run.jobs

let rec process t sh wave =
  match wave with
  | [] -> ()
  | job :: rest when not (mutation_prefix wave) ->
    finish job (handle_traced t sh ~ctx:job.ctx job.req);
    process t sh rest
  | _ ->
    let runs, rest = collect_runs sh wave in
    (match runs with
    | [] -> ()
    | [ run ] ->
      (* one tenant: plain submit, no domain fan-out *)
      let ops = List.concat_map (fun (j, _) -> Option.get (job_ops j.req)) run.jobs in
      let ctx = run_ctx run in
      let b =
        with_ctx ctx (fun () ->
            if Ctx.is_none ctx || not (Trace.enabled ()) then Engine.submit run.session ops
            else
              Trace.with_span "serve.batch"
                ~args:
                  [
                    ("shard", Trace.Int sh.sid);
                    ("tenant", Trace.Str run.tenant);
                    ("jobs", Trace.Int (List.length run.jobs));
                  ]
                (fun () ->
                  Trace.with_span "serve.engine"
                    ~args:[ ("ops", Trace.Int (List.length ops)) ]
                    (fun () -> Engine.submit run.session ops)))
      in
      distribute run b
    | runs ->
      let entries =
        Array.of_list
          (List.map
             (fun r ->
               (r.session, List.concat_map (fun (j, _) -> Option.get (job_ops j.req)) r.jobs))
             runs)
      in
      (* submit_many fans runs out over domains; ambient context is
         per-domain, so engine-side latching only follows the single-run
         path — here the batch span alone carries the trace. *)
      let ctx =
        List.fold_left (fun acc r -> if Ctx.is_none acc then run_ctx r else acc) Ctx.none runs
      in
      let batches =
        with_ctx ctx (fun () ->
            if Ctx.is_none ctx || not (Trace.enabled ()) then Engine.submit_many entries
            else
              Trace.with_span "serve.batch"
                ~args:[ ("shard", Trace.Int sh.sid); ("runs", Trace.Int (List.length runs)) ]
                (fun () -> Engine.submit_many entries))
      in
      List.iteri (fun i r -> distribute r batches.(i)) runs);
    process t sh rest

(* --- caller-run waves -------------------------------------------------------- *)

(* Solver kernels keep per-domain scratch (Domain.DLS) and trace spans nest
   on a per-domain stack, so two waves must never interleave on one domain.
   Threads of one domain can run waves of different shards at once (the
   busy flag is per shard); this lock serialises them. *)
let domain_wave_lock = Domain.DLS.new_key Mutex.create

(* Every job of the wave gets a reply, even when the engine raises: its
   caller, or the caller waiting on it, would otherwise wait forever. *)
let run_wave t sh wave =
  let lock = Domain.DLS.get domain_wave_lock in
  Mutex.lock lock;
  (try
     (if Trace.enabled () then
        let t1_us = Clock.now_us () in
        List.iter
          (fun job ->
            if not (Ctx.is_none job.ctx) then
              with_ctx job.ctx (fun () ->
                  Trace.span_between "serve.queue_wait" ~t0_us:job.enq_us ~t1_us))
          wave);
     process t sh wave
   with e ->
     let err = Error (Error.Precondition ("shard wave raised " ^ Printexc.to_string e)) in
     List.iter (fun job -> if job.reply = None then finish job err) wave);
  Mutex.unlock lock

(* --- public surface -------------------------------------------------------- *)

let create ?(threaded = true) ?(flight_capacity = 256) ~shards ~max_queue () =
  if shards <= 0 then invalid_arg "Shard.create: shards must be positive";
  if max_queue <= 0 then invalid_arg "Shard.create: max_queue must be positive";
  let mk sid =
    {
      sid;
      m = Mutex.create ();
      nonfull = Condition.create ();
      wave_done = Condition.create ();
      queue = [];
      queue_len = 0;
      stopping = false;
      busy = false;
      sessions = Hashtbl.create 64;
      roster_m = Mutex.create ();
      roster = [];
      n_sessions = Atomic.make 0;
    }
  in
  {
    shards = Array.init shards mk;
    max_queue;
    flight_capacity;
    threaded;
    drain_m = Mutex.create ();
    drained = None;
  }

let shards t = Array.length t.shards

let session_count t =
  Array.fold_left (fun acc sh -> acc + Atomic.get sh.n_sessions) 0 t.shards

let draining_error = Error.Precondition "server draining"

let call_sync t sh ~ctx req =
  Mutex.lock sh.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.m)
    (fun () ->
      if sh.stopping then Error draining_error
      else begin
        (* Synchronous dispatch never queues — a zero-width queue-wait
           span keeps the traced span set identical across modes. *)
        (if (not (Ctx.is_none ctx)) && Trace.enabled () then
           with_ctx ctx (fun () ->
               let now = Clock.now_us () in
               Trace.span_between "serve.queue_wait" ~t0_us:now ~t1_us:now));
        handle_traced t sh ~ctx req
      end)

(* Flat combining: the caller that finds its shard idle takes the whole
   queue, its own job included, and runs it as one wave; callers that find
   a wave running wait for one that answers them. *)
let call_threaded t sh ~ctx req =
  let job = { req; ctx; enq_us = Clock.now_us (); reply = None } in
  Mutex.lock sh.m;
  while sh.queue_len >= t.max_queue && not sh.stopping do
    Condition.wait sh.nonfull sh.m
  done;
  if sh.stopping then begin
    Mutex.unlock sh.m;
    Error draining_error
  end
  else begin
    sh.queue <- job :: sh.queue;
    sh.queue_len <- sh.queue_len + 1;
    while job.reply = None do
      if sh.busy then Condition.wait sh.wave_done sh.m
      else begin
        sh.busy <- true;
        let wave = List.rev sh.queue in
        sh.queue <- [];
        sh.queue_len <- 0;
        Condition.broadcast sh.nonfull;
        Mutex.unlock sh.m;
        run_wave t sh wave;
        Mutex.lock sh.m;
        sh.busy <- false;
        Condition.broadcast sh.wave_done
      end
    done;
    Mutex.unlock sh.m;
    Option.get job.reply
  end

let owning_tenant : Proto.req -> string option = function
  | Proto.Hello _ | Proto.Ping | Proto.Shutdown -> None
  | Proto.Open { tenant; _ }
  | Proto.Add_path { tenant; _ }
  | Proto.Remove_path { tenant; _ }
  | Proto.Add_arc { tenant; _ }
  | Proto.Submit { tenant; _ }
  | Proto.Report { tenant }
  | Proto.Pi { tenant }
  | Proto.Color_of { tenant; _ }
  | Proto.Stats { tenant }
  | Proto.Health { tenant }
  | Proto.Snapshot { tenant }
  | Proto.Evict { tenant } -> Some tenant
  | Proto.Dstats | Proto.Dhealth | Proto.Trace_dump _ -> None

let call ?(ctx = Ctx.none) t (req : Proto.req) =
  match owning_tenant req with
  | None -> (
    match req with
    | Proto.Hello v ->
      if v = Proto.version then Ok (Proto.R_hello Proto.version)
      else Error (Error.Unsupported_version v)
    | Proto.Ping -> Ok Proto.R_pong
    | Proto.Dstats -> dstats t
    | Proto.Dhealth -> dhealth t
    | Proto.Trace_dump { last } -> trace_dump t ~last
    | _ -> Ok Proto.R_bye)
  | Some tenant ->
    let sh = t.shards.(shard_of_tenant ~shards:(Array.length t.shards) tenant) in
    if t.threaded then call_threaded t sh ~ctx req else call_sync t sh ~ctx req

let drain t =
  Mutex.lock t.drain_m;
  match t.drained with
  | Some listing ->
    Mutex.unlock t.drain_m;
    listing
  | None ->
    Array.iter
      (fun sh ->
        Mutex.lock sh.m;
        sh.stopping <- true;
        Condition.broadcast sh.nonfull;
        (* jobs queued before the stop still run: their callers take
           the next waves *)
        while sh.busy || sh.queue <> [] do
          Condition.wait sh.wave_done sh.m
        done;
        Mutex.unlock sh.m)
      t.shards;
    let listing =
      Array.to_list t.shards
      |> List.concat_map (fun sh ->
             Hashtbl.fold (fun tenant s acc -> (tenant, s) :: acc) sh.sessions [])
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    t.drained <- Some listing;
    Mutex.unlock t.drain_m;
    listing
