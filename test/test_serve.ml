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

(* --- buffered frame reader ---------------------------------------------------- *)

(* Frames whose [4 + len] is one short of, equal to and one past the
   reader's buffer, and one far past it. *)
let edge_lengths = [ Wire.buffer_size - 5; Wire.buffer_size - 4; Wire.buffer_size - 3 ]
let big_length = (3 * Wire.buffer_size) + 17

(* Run [f] on the read end of a socketpair whose other end a thread fills
   with [chunks], one write each, then shuts: the reader sees exactly
   these bytes, then EOF.  A writer the reader stopped listening to gets
   EPIPE (SIGPIPE is ignored here) instead of blocking the join. *)
let with_feed chunks f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec write_all s off =
    if off < String.length s then
      write_all s (off + Unix.write_substring a s off (String.length s - off))
  in
  let writer =
    Thread.create
      (fun () ->
        (try List.iter (fun c -> write_all c 0) chunks with Unix.Unix_error _ -> ());
        try Unix.shutdown a Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close b;
      Thread.join writer;
      Unix.close a)
    (fun () -> f b)

(* Every frame a read function returns until it stops, and how it
   stopped: [None] for a clean EOF, else the error. *)
let read_all read =
  let rec go acc =
    match read () with
    | Ok (Some p) -> go (p :: acc)
    | Ok None -> (List.rev acc, None)
    | Error e -> (List.rev acc, Some e)
  in
  go []

(* [read_all] over one reader kept for the whole stream. *)
let reader_frames chunks =
  with_feed chunks (fun fd ->
      let r = Wire.reader fd in
      read_all (fun () -> Wire.read_frame r))

let random_payload rng len = String.init len (fun _ -> Char.chr (Prng.int rng 256))

(* Cut [s] at random points, into one byte per write, or not at all. *)
let chunk rng s =
  let n = String.length s in
  match Prng.int rng 3 with
  | 0 -> [ s ]
  | 1 when n <= 4096 -> List.init n (fun i -> String.make 1 s.[i])
  | _ ->
    let cuts = List.sort_uniq compare (List.init (Prng.int rng 6) (fun _ -> Prng.int rng (n + 1))) in
    let rec go prev = function
      | [] -> [ String.sub s prev (n - prev) ]
      | c :: rest -> String.sub s prev (c - prev) :: go c rest
    in
    go 0 cuts

let prop_reader_matches_unframe =
  qtest ~count:60 "read_frame = unframe_all over a socket" seed_gen (fun seed ->
      let rng = Prng.create seed in
      let length () =
        match Prng.int rng 8 with
        | 0 -> Prng.choose_list rng edge_lengths
        | 1 when Prng.int rng 4 = 0 -> big_length
        | _ -> 1 + Prng.int rng 40
      in
      let payloads = List.init (Prng.int rng 6) (fun _ -> random_payload rng (length ())) in
      let bytes = String.concat "" (List.map Wire.frame payloads) in
      let want = ok_exn "unframe_all" (Wire.unframe_all bytes) in
      match reader_frames (chunk rng bytes) with
      | got, None -> got = want && got = payloads
      | _, Some e -> QCheck2.Test.fail_reportf "read_frame: %s" (Error.to_string e))

let test_reader_inputs () =
  let rng = Prng.create 15 in
  let small = List.init 5 (fun i -> random_payload rng (1 + (7 * i))) in
  let edge = List.map (random_payload rng) edge_lengths in
  let big = random_payload rng big_length in
  let cases =
    [
      ("several frames in one write", small, fun s -> [ s ]);
      ("one byte per write", small, fun s -> List.init (String.length s) (fun i -> String.make 1 s.[i]));
      ("frames around the buffer edge", small @ edge @ small, fun s -> [ s ]);
      ("around the edge, split mid-prefix", edge, fun s ->
          let k = Wire.buffer_size - 2 in
          [ String.sub s 0 k; String.sub s k (String.length s - k) ]);
      ("a frame far larger than the buffer", small @ [ big ] @ small, fun s -> [ s ]);
      ("the large frame in 1000-byte writes", [ big; "tail" ], fun s ->
          List.init ((String.length s + 999) / 1000) (fun i ->
              String.sub s (i * 1000) (min 1000 (String.length s - (i * 1000)))));
    ]
  in
  List.iter
    (fun (what, payloads, split) ->
      let bytes = String.concat "" (List.map Wire.frame payloads) in
      match reader_frames (split bytes) with
      | got, None -> check what true (got = payloads)
      | _, Some e -> Alcotest.failf "%s: %s" what (Error.to_string e))
    cases

(* EOF after every byte count: both readers stop with [None] exactly at a
   frame boundary and with [Parse] anywhere else, after the same frames. *)
let test_reader_truncation () =
  let rng = Prng.create 16 in
  let check_cuts payloads cuts =
    let bytes = String.concat "" (List.map Wire.frame payloads) in
    let boundaries =
      List.fold_left (fun acc p -> (List.hd acc + 4 + String.length p) :: acc) [ 0 ] payloads
    in
    List.iter
      (fun k ->
        let prefix = String.sub bytes 0 k in
        let outcome (frames, stop) =
          ( frames,
            match stop with
            | None -> "eof"
            | Some (Error.Parse _) -> "parse"
            | Some e -> Error.to_string e )
        in
        let buffered = outcome (reader_frames [ prefix ]) in
        let plain = outcome (with_feed [ prefix ] (fun fd -> read_all (fun () -> Wire.read fd))) in
        let want = if List.mem k boundaries then "eof" else "parse" in
        if snd buffered <> want || buffered <> plain then
          Alcotest.failf "eof after %d bytes: read_frame %s after %d frames, read %s after %d"
            k (snd buffered) (List.length (fst buffered)) (snd plain) (List.length (fst plain)))
      cuts
  in
  let small = List.init 3 (fun i -> random_payload rng (1 + (5 * i))) in
  let n = String.length (String.concat "" (List.map Wire.frame small)) in
  check_cuts small (List.init (n + 1) Fun.id);
  let big = [ "x"; random_payload rng big_length ] in
  let n = 5 + 4 + big_length in
  check_cuts big [ 5; 6; 8; 9; 10; Wire.buffer_size; Wire.buffer_size + 1; n - 1; n ]

let prefix_of n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))

(* A zero or oversized prefix is refused as soon as it arrives: the
   writer stays open and sends no payload, so a reader that waited for
   one would hit the receive timeout instead; and nothing near the
   claimed size is allocated. *)
let test_reader_bad_lengths () =
  List.iter
    (fun (what, prefix) ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 2.0;
      Fun.protect
        ~finally:(fun () ->
          Unix.close a;
          Unix.close b)
        (fun () ->
          let refused what read =
            ignore (Unix.write_substring a prefix 0 4);
            let before = Gc.allocated_bytes () in
            let got = read () in
            let allocated = Gc.allocated_bytes () -. before in
            (match got with
            | Error (Error.Parse _) -> ()
            | Error e -> Alcotest.failf "%s: want Parse, got %s" what (Error.to_string e)
            | Ok _ -> Alcotest.failf "%s: accepted a bad length" what);
            if allocated > 4096. then Alcotest.failf "%s: allocated %.0f bytes" what allocated
          in
          let r = Wire.reader b in
          refused (what ^ ", read_frame") (fun () -> Wire.read_frame r);
          refused (what ^ ", read") (fun () -> Wire.read b)))
    [
      ("zero length", "\000\000\000\000");
      ("max_frame + 1", prefix_of (Wire.max_frame + 1));
      ("all ones", "\255\255\255\255");
    ]

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

let test_json_floats_exact () =
  (* Rates that need 16 or 17 significant digits come back bit for bit
     from the JSON mirror, as they do from the text form. *)
  let h =
    {
      Proto.healthy = true; add_p50 = 1; add_p99 = 2; remove_p50 = 3; remove_p99 = 4;
      warm_hit_recent = 2. /. 3.; warm_hit_lifetime = 0.1; fallback_streak = 0;
    }
  in
  List.iter
    (fun json ->
      match Proto.decode_reply (Proto.encode_reply ~json (Ok (Proto.R_health h))) with
      | Ok (Ok (Proto.R_health h')) ->
        check "2/3 exact" true (h'.Proto.warm_hit_recent = 2. /. 3.);
        check "0.1 exact" true (h'.Proto.warm_hit_lifetime = 0.1)
      | _ -> Alcotest.fail "health reply did not decode")
    [ false; true ]

let test_json_nesting_capped () =
  (* A deep but balanced array in an unknown field is refused as a Parse
     error instead of being walked level by level. *)
  let depth = 100_000 in
  let frame =
    "{\"wlrpc\": 1, \"verb\": \"ping\", \"x\": " ^ String.make depth '['
    ^ String.make depth ']' ^ "}"
  in
  (match Proto.decode_request frame with
  | Error (Error.Parse _) -> ()
  | Ok _ -> Alcotest.fail "deeply nested request accepted"
  | Error e -> Alcotest.failf "want Parse, got %s" (Error.to_string e));
  (* Nesting within the cap still parses. *)
  let shallow = "{\"wlrpc\": 1, \"verb\": \"ping\", \"x\": [[[[]]]]}" in
  check "shallow nesting" true (Proto.decode_request shallow = Ok Proto.Ping)

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
      (match Proto.decode_request_ctx (Proto.encode_request ~json req) with
      | Ok (Proto.Ping, c) ->
        check (tag ^ " absent ctx decodes to none") true (Ctx.is_none c)
      | _ -> Alcotest.failf "%s: untraced frame mishandled" tag);
      (* An id of sixteen hex digits beyond an OCaml int is a protocol
         error in either encoding, not an exception. *)
      let oversized =
        if json then "{\"wlrpc\": 1, \"ctx\": \"ffffffffffffffff:1\", \"verb\": \"ping\"}"
        else "wlrpc 1 ctx=ffffffffffffffff:1 ping\n"
      in
      match Proto.decode_request_ctx oversized with
      | Error (Error.Parse _) -> ()
      | _ -> Alcotest.failf "%s: oversized ctx id not a Parse error" tag)
    [ false; true ]

(* A duplicated ctx field is a protocol error in either encoding
   (proto.mli): neither form may settle for one of the two values. *)
let test_duplicated_ctx () =
  List.iter
    (fun frame ->
      match Proto.decode_request_ctx frame with
      | Error (Error.Parse _) -> ()
      | Ok _ -> Alcotest.failf "duplicated ctx accepted: %S" frame
      | Error e -> Alcotest.failf "%S: not a Parse error: %s" frame (Error.to_string e))
    [
      "wlrpc 1 ctx=1:2 ctx=3:4 ping\n";
      {|{"wlrpc": 1, "ctx": "1:2", "ctx": "3:4", "verb": "ping"}|};
    ]

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

(* A raw connection to a daemon, for byte streams no [Client] sends. *)
let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_raw fd s = check_int "one write" (Unix.write_substring fd s 0 (String.length s)) (String.length s)

let read_reply what fd =
  match Wire.read fd with
  | Ok (Some p) -> ok_exn what (Proto.decode_reply p)
  | Ok None -> Alcotest.failf "%s: connection closed" what
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

let with_daemon ~shards f =
  let path = Filename.temp_file "wld_test" ".sock" in
  Sys.remove path;
  let shard = Shard.create ~threaded:true ~shards ~max_queue:64 () in
  let srv = ok_exn "serve" (Server.serve ~shard (Server.Unix_sock path)) in
  f path;
  let c = ok_exn "connect" (Client.connect ("unix:" ^ path)) in
  ok_exn "shutdown" (Client.shutdown_server c);
  Client.close c;
  ignore (Server.wait srv);
  check "socket unlinked" false (Sys.file_exists path)

let request req = Wire.frame (Proto.encode_request req)

(* Two requests in one segment: the daemon's reader slices both out of
   one read and answers each, in order. *)
let test_daemon_pipelined () =
  with_daemon ~shards:1 (fun path ->
      let fd = raw_connect path in
      send_raw fd (request Proto.Ping ^ request (Proto.Hello Proto.version));
      check "first reply" true (read_reply "pong" fd = Ok Proto.R_pong);
      check "second reply" true (read_reply "hello" fd = Ok (Proto.R_hello Proto.version));
      Unix.close fd)

(* A valid request with garbage behind it in the same segment: the
   request is answered, the garbage gets an error frame and the daemon
   hangs up; another connection is served on, and the drain is clean. *)
let test_daemon_garbage_after_frame () =
  with_daemon ~shards:2 (fun path ->
      let fd = raw_connect path in
      send_raw fd (request Proto.Ping ^ "\255\255\255\255junk");
      check "valid request answered" true (read_reply "pong" fd = Ok Proto.R_pong);
      (match read_reply "error frame" fd with
      | Error (Error.Parse _) -> ()
      | _ -> Alcotest.fail "want a Parse error frame for the garbage");
      check "connection closed" true (Wire.read fd = Ok None);
      Unix.close fd;
      let c = ok_exn "connect" (Client.connect ("unix:" ^ path)) in
      ok_exn "ping on a second connection" (Client.ping c);
      Client.close c)

(* A reply stream whose framing breaks — an oversized prefix, then a
   valid pong — must not hand that pong to a later call: the first wire
   error breaks the client's connection for good. *)
let test_client_broken_after_wire_error () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path = Filename.temp_file "wld_fake" ".sock" in
  Sys.remove path;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let fake_server () =
    let fd, _ = Unix.accept lfd in
    (match Wire.read fd with
    | Ok (Some _) ->
      let bad = "\255\255\255\255" ^ Wire.frame (Proto.encode_reply (Ok Proto.R_pong)) in
      ignore (Unix.write_substring fd bad 0 (String.length bad))
    | _ -> ());
    (* answer nothing more; read until the client hangs up *)
    let rec drain () = match Wire.read fd with Ok (Some _) -> drain () | _ -> () in
    drain ();
    Unix.close fd
  in
  let server = Thread.create fake_server () in
  let c = ok_exn "connect" (Client.connect ("unix:" ^ path)) in
  (match Client.ping c with
  | Error (Error.Parse _) -> ()
  | Ok () -> Alcotest.fail "first ping: accepted an oversized reply"
  | Error e -> Alcotest.failf "first ping: want Parse, got %s" (Error.to_string e));
  (match Client.ping c with
  | Error (Error.Io _) -> ()
  | Ok () -> Alcotest.fail "second ping: took the stale pong for its reply"
  | Error e -> Alcotest.failf "second ping: want Io, got %s" (Error.to_string e));
  Client.close c;
  Thread.join server;
  Unix.close lfd;
  Sys.remove path

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
        prop_reader_matches_unframe;
        Alcotest.test_case "read_frame inputs" `Quick test_reader_inputs;
        Alcotest.test_case "read_frame truncation" `Quick test_reader_truncation;
        Alcotest.test_case "read_frame bad lengths" `Quick test_reader_bad_lengths;
        Alcotest.test_case "tenant ids" `Quick test_tenants;
        Alcotest.test_case "error frames" `Quick test_error_frames;
        Alcotest.test_case "request round trips" `Quick test_request_roundtrip;
        Alcotest.test_case "json floats exact" `Quick test_json_floats_exact;
        Alcotest.test_case "json nesting capped" `Quick test_json_nesting_capped;
        Alcotest.test_case "addresses" `Quick test_addresses;
        Alcotest.test_case "loopback client" `Quick test_loopback;
        Alcotest.test_case "json loopback batch" `Quick test_loopback_json_and_batch;
        Alcotest.test_case "ctx on the wire" `Quick test_ctx_on_the_wire;
        Alcotest.test_case "duplicated ctx is a Parse error" `Quick
          test_duplicated_ctx;
        Alcotest.test_case "daemon introspection" `Quick test_introspection;
        Alcotest.test_case "traced call span tree" `Quick
          test_traced_call_span_tree;
        Alcotest.test_case "unix socket daemon" `Quick test_daemon_roundtrip;
        Alcotest.test_case "daemon, pipelined requests" `Quick test_daemon_pipelined;
        Alcotest.test_case "daemon, garbage after a frame" `Quick
          test_daemon_garbage_after_frame;
        Alcotest.test_case "client, wire error breaks the connection" `Quick
          test_client_broken_after_wire_error;
        Alcotest.test_case "threaded shard, concurrent callers" `Quick
          test_threaded_concurrent_callers;
        Alcotest.test_case "threaded shard, drain under traffic" `Quick
          test_threaded_drain_under_traffic;
        Alcotest.test_case "threaded shard, raising wave" `Quick
          test_threaded_wave_that_raises;
      ] );
  ]
