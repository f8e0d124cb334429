(* Tests for the wlrpc/1 service stack: wire framing totality, protocol
   codecs (text and JSON, error frames included), address parsing, the
   loopback client against a live engine, and a real unix-socket daemon
   round trip ending in a graceful drain.  The statistical/differential
   side lives in the client_vs_engine and wlrpc_frame fuzz oracles; these
   are the deterministic anchors. *)

open Helpers
open Wl_core
module Engine = Wl_engine.Engine
module Wire = Wl_serve.Wire
module Proto = Wl_serve.Proto
module Shard = Wl_serve.Shard
module Server = Wl_serve.Server
module Client = Wl_serve.Client

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

let line3 () =
  (* 0 -> 1 -> 2 -> 3 with two overlapping paths: pi = 2, w = 2. *)
  let g = Wl_digraph.Digraph.create () in
  for _ = 0 to 3 do
    ignore (Wl_digraph.Digraph.add_vertex g)
  done;
  List.iter (fun (a, b) -> ignore (Wl_digraph.Digraph.add_arc g a b))
    [ (0, 1); (1, 2); (2, 3) ];
  ok_exn "line3" (Instance.of_vertex_seqs g [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ])

(* --- wire framing ----------------------------------------------------------- *)

let test_wire () =
  let f = Wire.frame "hello" in
  check_int "frame length" (String.length f) 9;
  (match Wire.unframe f 0 with
  | Ok (p, off) ->
    Alcotest.(check string) "payload" "hello" p;
    check_int "offset" off 9
  | Error e -> Alcotest.failf "unframe: %s" (Error.to_string e));
  (match Wire.unframe_all (f ^ Wire.frame "world") with
  | Ok ps -> Alcotest.(check (list string)) "stream" [ "hello"; "world" ] ps
  | Error e -> Alcotest.failf "unframe_all: %s" (Error.to_string e));
  let parse_error what = function
    | Error (Error.Parse _) -> ()
    | Error e -> Alcotest.failf "%s: want Parse, got %s" what (Error.to_string e)
    | Ok _ -> Alcotest.failf "%s: decoded a corrupt frame" what
  in
  parse_error "empty" (Wire.unframe "" 0);
  parse_error "short prefix" (Wire.unframe "\000\000" 0);
  parse_error "zero length" (Wire.unframe "\000\000\000\000x" 0);
  parse_error "oversized" (Wire.unframe "\255\255\255\255x" 0);
  parse_error "truncated payload" (Wire.unframe (String.sub f 0 8) 0);
  check "writer refuses empty" true
    (match Wire.frame "" with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- protocol codecs --------------------------------------------------------- *)

let test_tenants () =
  check "plain ok" true (Proto.tenant_ok "build42");
  check "dots/dashes ok" true (Proto.tenant_ok "a.b-c_d");
  check "empty rejected" false (Proto.tenant_ok "");
  check "space rejected" false (Proto.tenant_ok "a b");
  check "newline rejected" false (Proto.tenant_ok "a\nb");
  check "slash rejected" false (Proto.tenant_ok "a/b");
  check "long rejected" false (Proto.tenant_ok (String.make 129 'x'));
  check "128 ok" true (Proto.tenant_ok (String.make 128 'x'))

let every_error =
  [
    Error.Parse { line = 7; msg = "bad token\nwith \\ escapes" };
    Error.Invalid_path "not a dipath";
    Error.Cyclic "cycle 1 -> 2 -> 1";
    Error.Bad_index { what = "path"; index = 5 };
    Error.Invalid_op "dead handle";
    Error.Precondition "tenant id";
    Error.Unsupported_version 3;
    Error.Io "broken pipe";
  ]

let test_error_frames () =
  (* Every constructor round-trips both encodings, and the frame carries
     the same sysexits code the CLI would exit with. *)
  List.iter
    (fun e ->
      List.iter
        (fun json ->
          match Proto.decode_reply (Proto.encode_reply ~json (Error e)) with
          | Ok (Error e') ->
            check "same error" true (e = e');
            check_int "same wire code" (Error.to_code e) (Error.to_code e')
          | Ok (Ok _) -> Alcotest.fail "error frame decoded as success"
          | Error e' ->
            Alcotest.failf "error frame did not decode: %s" (Error.to_string e'))
        [ false; true ])
    every_error

let test_request_roundtrip () =
  let inst = line3 () in
  let reqs =
    [
      Proto.Hello 1;
      Proto.Ping;
      Proto.Shutdown;
      Proto.Add_path { tenant = "t"; vertices = [ 0; 1; 2 ] };
      Proto.Remove_path { tenant = "t"; id = 0 };
      Proto.Add_arc { tenant = "t"; tail = 3; head = 0 };
      Proto.Submit
        { tenant = "t"; ops = [ Engine.Add_path [ 0; 1 ]; Engine.Remove_path 1 ] };
      Proto.Report { tenant = "t" };
      Proto.Pi { tenant = "t" };
      Proto.Color_of { tenant = "t"; id = 1 };
      Proto.Stats { tenant = "t" };
      Proto.Health { tenant = "t" };
      Proto.Snapshot { tenant = "t" };
      Proto.Evict { tenant = "t" };
    ]
  in
  List.iter
    (fun json ->
      List.iter
        (fun r ->
          match Proto.decode_request (Proto.encode_request ~json r) with
          | Ok r' -> check "request round trip" true (r = r')
          | Error e -> Alcotest.failf "decode: %s" (Error.to_string e))
        reqs;
      (* Open carries an instance; compare its serialized form. *)
      match
        Proto.decode_request
          (Proto.encode_request ~json (Proto.Open { tenant = "t"; instance = inst }))
      with
      | Ok (Proto.Open { tenant; instance }) ->
        Alcotest.(check string) "open tenant" "t" tenant;
        Alcotest.(check string) "open instance" (Serial.to_string inst)
          (Serial.to_string instance)
      | Ok _ -> Alcotest.fail "open decoded as another verb"
      | Error e -> Alcotest.failf "open decode: %s" (Error.to_string e))
    [ false; true ];
  check "bad tenant unrepresentable" true
    (match Proto.encode_request (Proto.Report { tenant = "a b" }) with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_addresses () =
  let round s expect =
    match Server.address_of_string s with
    | Ok a -> Alcotest.(check string) s expect (Server.address_to_string a)
    | Error e -> Alcotest.failf "%s: %s" s (Error.to_string e)
  in
  round "unix:/tmp/wld.sock" "unix:/tmp/wld.sock";
  round "/tmp/wld.sock" "unix:/tmp/wld.sock";
  round "./wld.sock" "unix:./wld.sock";
  round "tcp:localhost:7070" "tcp:localhost:7070";
  round "localhost:7070" "tcp:localhost:7070";
  List.iter
    (fun s ->
      check ("reject " ^ s) true
        (Result.is_error (Server.address_of_string s)))
    [ ""; "unix:"; "tcp:"; "tcp:host"; "tcp:host:0"; "tcp:host:notaport"; "plain" ]

(* --- loopback client --------------------------------------------------------- *)

let test_loopback () =
  let c = Client.local () in
  check_int "hello" (ok_exn "hello" (Client.hello c)) Proto.version;
  ok_exn "ping" (Client.ping c);
  let s = ok_exn "open" (Client.open_session c ~tenant:"t1" (line3 ())) in
  check_int "pi" (ok_exn "pi" (Client.pi s)) 2;
  let id = ok_exn "add" (Client.add_path s [ 0; 1 ]) in
  let r = ok_exn "report" (Client.report s) in
  check_int "w = pi" r.Proto.n_wavelengths r.Proto.pi;
  check "optimal" true r.Proto.optimal;
  let c0 = ok_exn "color" (Client.color_of s id) in
  check "color in palette" true (c0 >= 0 && c0 < r.Proto.n_wavelengths);
  (match Client.remove_path s 99 with
  | Error (Error.Bad_index _) -> ()
  | Error e -> Alcotest.failf "want Bad_index, got %s" (Error.to_string e)
  | Ok () -> Alcotest.fail "removed a path that never existed");
  ok_exn "remove" (Client.remove_path s id);
  let snap = ok_exn "snapshot" (Client.snapshot s) in
  check_int "snapshot paths" (Instance.n_paths snap) 2;
  let st = ok_exn "stats" (Client.stats s) in
  check_int "ops accepted" st.Engine.ops 2;
  let h = ok_exn "health" (Client.health s) in
  check "healthy" true h.Proto.healthy;
  ok_exn "evict" (Client.evict s);
  (match Client.pi s with
  | Error (Error.Invalid_op _) -> ()
  | _ -> Alcotest.fail "evicted session still answers");
  (* Sessions on a second tenant are independent. *)
  let s2 = ok_exn "open t2" (Client.open_session c ~tenant:"t2" (line3 ())) in
  check_int "t2 pi" (ok_exn "pi" (Client.pi s2)) 2;
  Client.close c;
  (match Client.ping c with
  | Error (Error.Invalid_op _) -> ()
  | _ -> Alcotest.fail "closed client still answers")

let test_loopback_json_and_batch () =
  let c = Client.local ~json:true ~shards:2 () in
  let s = ok_exn "open" (Client.open_session c ~tenant:"batch" (line3 ())) in
  let b =
    ok_exn "submit"
      (Client.submit s
         [ Engine.Add_path [ 0; 1 ]; Engine.Add_path [ 9; 9 ]; Engine.Remove_path 0 ])
  in
  check_int "outcomes" (Array.length b.Client.outcomes) 3;
  check "first accepted" true
    (match b.Client.outcomes.(0) with Ok (Proto.O_path _) -> true | _ -> false);
  check "second rejected" true (Result.is_error b.Client.outcomes.(1));
  check "third accepted" true
    (match b.Client.outcomes.(2) with Ok (Proto.O_removed 0) -> true | _ -> false);
  (* [0;1;2] is gone: the two survivors ([1;2;3], [0;1]) are arc-disjoint. *)
  check_int "after pi" b.Client.after.Proto.pi 1;
  Client.close c

(* --- trace context on the wire ----------------------------------------------- *)

module Ctx = Wl_obs.Ctx
module Trace = Wl_obs.Trace
module Hdr = Wl_obs.Hdr

let test_ctx_on_the_wire () =
  let g = Ctx.generator 31 in
  let ctx = Ctx.child g (Ctx.root g) in
  List.iter
    (fun json ->
      let tag = if json then "json" else "text" in
      let req = Proto.Ping in
      (match Proto.decode_request_ctx (Proto.encode_request ~json ~ctx req) with
      | Ok (Proto.Ping, c) ->
        check (tag ^ " trace id carried") true (c.Ctx.trace_id = ctx.Ctx.trace_id);
        check (tag ^ " span id carried") true (c.Ctx.span_id = ctx.Ctx.span_id);
        check (tag ^ " parent not carried") true (c.Ctx.parent_id = 0)
      | Ok _ -> Alcotest.failf "%s: ctx frame decoded as another verb" tag
      | Error e -> Alcotest.failf "%s: %s" tag (Error.to_string e));
      (* The untraced encoding is byte-identical to the pre-context
         protocol: that equality is what keeps old peers compatible. *)
      Alcotest.(check string)
        (tag ^ " Ctx.none encodes nothing")
        (Proto.encode_request ~json req)
        (Proto.encode_request ~json ~ctx:Ctx.none req);
      match Proto.decode_request_ctx (Proto.encode_request ~json req) with
      | Ok (Proto.Ping, c) ->
        check (tag ^ " absent ctx decodes to none") true (Ctx.is_none c)
      | _ -> Alcotest.failf "%s: untraced frame mishandled" tag)
    [ false; true ]

(* --- daemon introspection ----------------------------------------------------- *)

let with_memory_trace f =
  let sink = Trace.memory () in
  Trace.set_sink sink;
  Fun.protect ~finally:Trace.clear (fun () -> f sink)

let test_introspection () =
  (* Loopback daemon with several tenants; requests run traced so the
     engine latches exemplars.  The dstats rollup must equal a manual
     Hdr.merge_into over the drained sessions' histograms — introspection
     is a read-side projection, not a second bookkeeping path. *)
  with_memory_trace (fun _sink ->
      let shard = Shard.create ~threaded:false ~shards:2 ~max_queue:64 () in
      let c = Client.of_shard ~seed:77 shard in
      let n_adds = [ ("alpha", 4); ("beta", 2); ("gamma", 5) ] in
      List.iter
        (fun (tenant, n) ->
          let s = ok_exn "open" (Client.open_session c ~tenant (line3 ())) in
          for _ = 1 to n do
            ignore (ok_exn "add" (Client.add_path s [ 0; 1 ]));
            ok_exn "remove"
              (Client.remove_path s
                 (ok_exn "add2" (Client.add_path s [ 2; 3 ])))
          done)
        n_adds;
      let d = ok_exn "dstats" (Client.daemon_stats c) in
      check_int "shards" 2 d.Proto.d_shards;
      check_int "sessions" 3 d.Proto.d_sessions;
      check_int "tenant rows" 3 (List.length d.Proto.d_tenants);
      check "rows sorted by tenant" true
        (List.map (fun r -> r.Proto.r_tenant) d.Proto.d_tenants
        = [ "alpha"; "beta"; "gamma" ]);
      List.iter
        (fun r ->
          let n = List.assoc r.Proto.r_tenant n_adds in
          (* open solves, then n (add, add, remove) rounds leave n+1 paths. *)
          check_int (r.Proto.r_tenant ^ " paths") (2 + n) r.Proto.r_paths;
          check_int (r.Proto.r_tenant ^ " ops") (3 * n) r.Proto.r_ops;
          check (r.Proto.r_tenant ^ " healthy") true r.Proto.r_healthy;
          check (r.Proto.r_tenant ^ " shard in range") true
            (r.Proto.r_shard >= 0 && r.Proto.r_shard < 2))
        d.Proto.d_tenants;
      let total_adds = List.fold_left (fun a (_, n) -> a + (2 * n)) 0 n_adds in
      check_int "add rollup count" total_adds d.Proto.d_add.Proto.l_count;
      check "traced requests latched an add exemplar" true
        (d.Proto.d_add.Proto.l_ex_trace <> 0);
      (* Introspection must not perturb what it reports. *)
      let d2 = ok_exn "dstats again" (Client.daemon_stats c) in
      check "dstats is read-only" true (d = d2);
      let h = ok_exn "dhealth" (Client.daemon_health c) in
      check "daemon healthy" true h.Proto.dh_healthy;
      check_int "dhealth sessions" 3 h.Proto.dh_sessions;
      check "no unhealthy tenants" true (h.Proto.dh_unhealthy = []);
      (* The merged-trace endpoint returns a valid Chrome document
         covering every tenant's flight ring. *)
      let doc = ok_exn "trace pull" (Client.trace_pull c) in
      (match Trace.validate_chrome doc with
      | Ok n -> check "trace has the churn" true (n >= total_adds)
      | Error e -> Alcotest.fail ("pulled trace invalid: " ^ e));
      let doc1 = ok_exn "trace pull last" (Client.trace_pull ~last:1 c) in
      (match Trace.validate_chrome doc1 with
      | Ok n -> check_int "last=1 keeps one op per ring" 3 n
      | Error e -> Alcotest.fail ("trimmed trace invalid: " ^ e));
      (* Ground truth: merge the drained sessions' histograms by hand and
         compare against the wire rollup, field for field. *)
      let sessions = Shard.drain shard in
      check_int "drained all sessions" 3 (List.length sessions);
      let merged = Hdr.create () in
      List.iter
        (fun (_, s) -> Hdr.merge_into ~dst:merged (Engine.add_hdr s))
        sessions;
      check_int "rollup count = manual merge" (Hdr.count merged)
        d.Proto.d_add.Proto.l_count;
      check_int "rollup p50 = manual merge" (Hdr.quantile merged 0.5)
        d.Proto.d_add.Proto.l_p50;
      check_int "rollup p99 = manual merge" (Hdr.quantile merged 0.99)
        d.Proto.d_add.Proto.l_p99;
      check_int "rollup max = manual merge" (Hdr.max_value merged)
        d.Proto.d_add.Proto.l_max;
      match Hdr.exemplar merged with
      | None -> Alcotest.fail "manual merge lost the exemplar"
      | Some (ns, trace) ->
        check_int "exemplar ns = manual merge" ns d.Proto.d_add.Proto.l_ex_ns;
        check_int "exemplar trace = manual merge" trace
          d.Proto.d_add.Proto.l_ex_trace)

let test_traced_call_span_tree () =
  (* One traced request through the sync loopback produces the full span
     family — client.call, wire.codec, serve.queue_wait, serve.batch,
     serve.engine — all stamped with one trace id. *)
  with_memory_trace (fun sink ->
      let c = Client.local ~seed:5 () in
      let s = ok_exn "open" (Client.open_session c ~tenant:"t" (line3 ())) in
      ignore (ok_exn "add" (Client.add_path s [ 0; 1 ]));
      Client.close c;
      let events = Trace.events sink in
      let traces =
        List.filter_map
          (fun e ->
            List.find_map
              (function "trace", Trace.Str t -> Some t | _ -> None)
              e.Trace.args)
          events
      in
      check "spans carry trace args" true (traces <> []);
      List.iter
        (fun name ->
          check ("span " ^ name ^ " present") true
            (List.exists (fun e -> e.Trace.name = name) events))
        [ "client.call"; "wire.codec"; "serve.queue_wait"; "serve.batch";
          "serve.engine" ];
      (* Every open/add span family shares one trace id per request, and
         distinct requests get distinct trace ids. *)
      let module SS = Set.Make (String) in
      let distinct = SS.of_list traces in
      check "one trace id per request" true (SS.cardinal distinct >= 2))

(* --- unix-socket daemon ------------------------------------------------------ *)

let test_daemon_roundtrip () =
  let path = Filename.temp_file "wld_test" ".sock" in
  Sys.remove path;
  let shard = Shard.create ~threaded:true ~shards:2 ~max_queue:64 () in
  let srv =
    ok_exn "serve" (Server.serve ~shard (Server.Unix_sock path))
  in
  let c = ok_exn "connect" (Client.connect ("unix:" ^ path)) in
  check_int "hello" (ok_exn "hello" (Client.hello c)) Proto.version;
  let s = ok_exn "open" (Client.open_session c ~tenant:"remote" (line3 ())) in
  let id = ok_exn "add" (Client.add_path s [ 1; 2; 3 ]) in
  check_int "pi over the wire" (ok_exn "pi" (Client.pi s)) 3;
  ok_exn "remove" (Client.remove_path s id);
  (* A second client sees the same tenant: state lives server-side. *)
  let c2 = ok_exn "connect2" (Client.connect ~json:true ("unix:" ^ path)) in
  let s2 = ok_exn "session2" (Client.session c2 ~tenant:"remote") in
  check_int "shared pi" (ok_exn "pi2" (Client.pi s2)) 2;
  ok_exn "shutdown" (Client.shutdown_server c2);
  Client.close c2;
  Client.close c;
  let drained = Server.wait srv in
  check_int "one session at drain" (List.length drained) 1;
  (match drained with
  | [ (tenant, sess) ] ->
    Alcotest.(check string) "tenant" "remote" tenant;
    check "drained healthy" true (Engine.health sess).Engine.healthy
  | _ -> Alcotest.fail "unexpected drain listing");
  check "socket unlinked" false (Sys.file_exists path)

(* --- threaded shard under concurrent callers ---------------------------------- *)

(* Run [f i] for i < n on threads spread over two domains and started
   together, so that callers truly overlap (the callers below also yield
   after each call, so that threads of one domain interleave).  Fail the
   test when they have not all returned within 10 s: a caller left
   blocked fails the suite instead of stalling it.  The first exception a
   caller raised is re-raised here. *)
let run_watched n f =
  let ready = Atomic.make 0 and finished = Atomic.make 0 and failure = Atomic.make None in
  let caller i () =
    Atomic.incr ready;
    while Atomic.get ready < n do
      Thread.yield ()
    done;
    (try f i with e -> ignore (Atomic.compare_and_set failure None (Some e)));
    Atomic.incr finished
  in
  let on_domain d () =
    List.filter (fun i -> i mod 2 = d) (List.init n Fun.id)
    |> List.map (fun i -> Thread.create (caller i) ())
    |> List.iter Thread.join
  in
  let domains = List.init 2 (fun d -> Domain.spawn (on_domain d)) in
  let deadline = Unix.gettimeofday () +. 10. in
  while Atomic.get finished < n && Unix.gettimeofday () < deadline do
    Thread.delay 0.002
  done;
  if Atomic.get finished < n then Alcotest.fail "a caller is still blocked after 10 s";
  List.iter Domain.join domains;
  Option.iter raise (Atomic.get failure)

(* A tenant on its own rooted tree (no internal cycle, so every report
   reads w = pi) with a pool of dipaths to add, and the log of the
   requests sent for it with their replies, newest first. *)
type tree_tenant = {
  tenant : string;
  base : Instance.t;
  pool : int list array;
  rng : Wl_util.Prng.t;
  mutable live : int list;
  mutable log : (Proto.req * Proto.reply) list;
}

let tree_tenant i =
  let rng = Wl_util.Prng.create (4100 + i) in
  let dag = Wl_netgen.Generators.random_rooted_tree rng 24 in
  let pool = Wl_netgen.Path_gen.random_family rng dag 32 in
  {
    tenant = Printf.sprintf "c%02d" i;
    base = Instance.make dag [];
    pool = Array.of_list (List.map Wl_digraph.Dipath.vertices pool);
    rng;
    live = [];
    log = [];
  }

(* Log a reply to one of [tt]'s requests and track its live ids; any
   error fails the test.  Runs on caller threads, so it raises instead of
   calling [check], whose shared formatter is not thread-safe. *)
let record tt req reply =
  tt.log <- (req, reply) :: tt.log;
  match (req, reply) with
  | Proto.Add_path _, Ok (Proto.R_path id) -> tt.live <- id :: tt.live
  | Proto.Remove_path { id; _ }, Ok (Proto.R_removed _) ->
    tt.live <- List.filter (( <> ) id) tt.live
  | Proto.Report _, Ok (Proto.R_report r) ->
    if r.Proto.n_wavelengths <> r.Proto.pi then
      Alcotest.failf "%s: served w = %d, pi = %d" tt.tenant r.Proto.n_wavelengths r.Proto.pi
  | (Proto.Color_of _ | Proto.Report _), Ok _ -> ()
  | _, Ok _ -> Alcotest.failf "%s: reply of the wrong shape" tt.tenant
  | _, Error e ->
    Alcotest.failf "%s %s: %s" tt.tenant (Proto.verb_of_req req) (Error.to_string e)

let add_or_remove tt ~keep =
  match tt.live with
  | id :: rest when List.length rest >= keep -> Proto.Remove_path { tenant = tt.tenant; id }
  | _ ->
    let vertices = tt.pool.(Wl_util.Prng.int tt.rng (Array.length tt.pool)) in
    Proto.Add_path { tenant = tt.tenant; vertices }

(* One op of a tenant's stream: adds and removes around 8 live paths,
   reports and colour queries on ids this tenant's own replies returned. *)
let tenant_step shard tt =
  let req =
    match Wl_util.Prng.int tt.rng 8 with
    | 0 -> Proto.Report { tenant = tt.tenant }
    | 1 when tt.live <> [] ->
      let id = List.nth tt.live (Wl_util.Prng.int tt.rng (List.length tt.live)) in
      Proto.Color_of { tenant = tt.tenant; id }
    | k -> add_or_remove tt ~keep:(4 + k)
  in
  record tt req (Shard.call shard req)

let test_threaded_concurrent_callers () =
  let shard = Shard.create ~threaded:true ~shards:2 ~max_queue:64 () in
  let tenants = Array.init 16 tree_tenant in
  Array.iter
    (fun tt ->
      match Shard.call shard (Proto.Open { tenant = tt.tenant; instance = tt.base }) with
      | Ok (Proto.R_open _) -> ()
      | _ -> Alcotest.failf "open %s" tt.tenant)
    tenants;
  (* thread k drives tenants k, k+4, k+8, k+12, one op each in turn *)
  run_watched 4 (fun k ->
      for _ = 1 to 250 do
        for j = 0 to 3 do
          tenant_step shard tenants.(k + (4 * j));
          Thread.yield ()
        done
      done);
  let replay = Shard.create ~threaded:false ~shards:2 ~max_queue:64 () in
  Array.iter
    (fun tt ->
      ignore (Shard.call replay (Proto.Open { tenant = tt.tenant; instance = tt.base }));
      List.iter
        (fun (req, reply) ->
          let again = Shard.call replay req in
          match req with
          | Proto.Add_path _ | Proto.Remove_path _ ->
            check (tt.tenant ^ " replay reply") true (again = reply)
          | _ -> check (tt.tenant ^ " replay ok") true (Result.is_ok again))
        (List.rev tt.log))
    tenants;
  let served = Shard.drain shard and replayed = Shard.drain replay in
  check_int "sessions" 16 (List.length served);
  List.iter2
    (fun (tenant, s) (tenant', r) ->
      Alcotest.(check string) "tenant order" tenant tenant';
      check_int (tenant ^ " pi") (Engine.pi r) (Engine.pi s);
      check (tenant ^ " live paths") true
        (List.map (fun (id, p) -> (id, Wl_digraph.Dipath.vertices p)) (Engine.live_paths s)
        = List.map (fun (id, p) -> (id, Wl_digraph.Dipath.vertices p)) (Engine.live_paths r));
      check_int (tenant ^ " ops") (Engine.stats r).Engine.ops (Engine.stats s).Engine.ops;
      let rep = Engine.report s in
      check_int (tenant ^ " w = pi") rep.Solver.pi rep.Solver.n_wavelengths)
    served replayed

let test_threaded_drain_under_traffic () =
  let shard = Shard.create ~threaded:true ~shards:2 ~max_queue:8 () in
  let tenants = Array.init 8 tree_tenant in
  Array.iter
    (fun tt -> ignore (Shard.call shard (Proto.Open { tenant = tt.tenant; instance = tt.base })))
    tenants;
  let started = Atomic.make 0 in
  let drained = ref [] in
  (* threads 0-3 churn tenants k and k+4 until the drain turns them away;
     thread 4 drains once the churn is under way *)
  run_watched 5 (fun k ->
      if k = 4 then begin
        while Atomic.get started < 200 do
          Thread.yield ()
        done;
        (* the listing is quiescent: its counts are final already *)
        drained :=
          List.map (fun (tenant, s) -> (tenant, (s, (Engine.stats s).Engine.ops))) (Shard.drain shard)
      end
      else begin
        let stop = ref false and j = ref 0 in
        while not !stop do
          let tt = tenants.(k + (4 * (!j land 1))) in
          incr j;
          Atomic.incr started;
          let req = add_or_remove tt ~keep:6 in
          match Shard.call shard req with
          | Error (Error.Precondition "server draining") -> stop := true
          | reply ->
            record tt req reply;
            Thread.yield ()
        done
      end);
  (* a call either ran or was turned away: each session holds exactly
     the mutations whose replies said Ok *)
  check_int "sessions at drain" 8 (List.length !drained);
  Array.iter
    (fun tt ->
      let s, ops_at_drain = List.assoc tt.tenant !drained in
      check_int (tt.tenant ^ " ops at drain") (List.length tt.log) ops_at_drain;
      check_int (tt.tenant ^ " ops") ops_at_drain (Engine.stats s).Engine.ops;
      check_int (tt.tenant ^ " live") (List.length tt.live) (Engine.n_live_paths s))
    tenants;
  match Shard.call shard (Proto.Pi { tenant = "c00" }) with
  | Error (Error.Precondition _) -> ()
  | _ -> Alcotest.fail "a drained shard still answers"

let test_threaded_wave_that_raises () =
  (* An instance whose graph gained a back arc after it was built: the
     session's first full solve raises (the synchronous shard lets the
     exception through).  A threaded call must get a typed error, and
     the shard must stay usable and drainable. *)
  let bad () =
    let inst = line3 () in
    ignore (Wl_digraph.Digraph.add_arc (Instance.graph inst) 3 0);
    Proto.Open { tenant = "bad"; instance = inst }
  in
  let sync = Shard.create ~threaded:false ~shards:1 ~max_queue:8 () in
  check "the sync call raises" true
    (match Shard.call sync (bad ()) with _ -> false | exception _ -> true);
  let shard = Shard.create ~threaded:true ~shards:1 ~max_queue:8 () in
  run_watched 1 (fun _ ->
      (match Shard.call shard (bad ()) with
      | Error (Error.Precondition _) -> ()
      | _ -> Alcotest.fail "a raising wave must answer with Precondition");
      (match Shard.call shard (Proto.Open { tenant = "good"; instance = line3 () }) with
      | Ok (Proto.R_open _) -> ()
      | _ -> Alcotest.fail "the shard is unusable after a raising wave");
      ignore (Shard.drain shard))

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "wire framing" `Quick test_wire;
        Alcotest.test_case "tenant ids" `Quick test_tenants;
        Alcotest.test_case "error frames" `Quick test_error_frames;
        Alcotest.test_case "request round trips" `Quick test_request_roundtrip;
        Alcotest.test_case "addresses" `Quick test_addresses;
        Alcotest.test_case "loopback client" `Quick test_loopback;
        Alcotest.test_case "json loopback batch" `Quick test_loopback_json_and_batch;
        Alcotest.test_case "ctx on the wire" `Quick test_ctx_on_the_wire;
        Alcotest.test_case "daemon introspection" `Quick test_introspection;
        Alcotest.test_case "traced call span tree" `Quick
          test_traced_call_span_tree;
        Alcotest.test_case "unix socket daemon" `Quick test_daemon_roundtrip;
        Alcotest.test_case "threaded shard, concurrent callers" `Quick
          test_threaded_concurrent_callers;
        Alcotest.test_case "threaded shard, drain under traffic" `Quick
          test_threaded_drain_under_traffic;
        Alcotest.test_case "threaded shard, raising wave" `Quick
          test_threaded_wave_that_raises;
      ] );
  ]
