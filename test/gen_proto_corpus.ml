(* Emit the golden wlrpc/1 wire corpus on stdout.

   Every request and reply constructor is encoded in both encodings, with
   and without a trace context, and every Error.t constructor as an error
   reply and as an outcome line; each frame is printed byte for byte
   together with what decoding it yields.  Then a list of odd frames
   (integer spellings, runs of spaces, unknown error constructors, error
   objects with fields missing, wrong versions, truncated bodies, damaged
   ctx fields) pins the decoders' verdict on each.

   A frame that decodes prints as "ok", its canonical text re-encoding
   and whether re-encoding it in its own encoding gives the frame back; a
   rejected frame prints only the Error constructor and code, so decoder
   messages may be reworded without touching the golden.  The output is
   diffed against proto_corpus.golden.txt. *)

open Wl_core
module Proto = Wl_serve.Proto
module Engine = Wl_engine.Engine
module Ctx = Wl_obs.Ctx
module Digraph = Wl_digraph.Digraph

let instance () =
  let g = Digraph.create () in
  for _ = 0 to 3 do
    ignore (Digraph.add_vertex g)
  done;
  Digraph.set_label g 0 "src";
  List.iter (fun (a, b) -> ignore (Digraph.add_arc g a b)) [ (0, 1); (1, 2); (2, 3) ];
  match Instance.of_vertex_seqs g [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ] with
  | Ok inst -> inst
  | Error e -> failwith (Error.to_string e)

let ctx =
  let g = Ctx.generator 42 in
  Ctx.child g (Ctx.root g)

let ctor = function
  | Error.Parse _ -> "Parse"
  | Error.Invalid_path _ -> "Invalid_path"
  | Error.Cyclic _ -> "Cyclic"
  | Error.Bad_index _ -> "Bad_index"
  | Error.Invalid_op _ -> "Invalid_op"
  | Error.Precondition _ -> "Precondition"
  | Error.Unsupported_version _ -> "Unsupported_version"
  | Error.Io _ -> "Io"

let ctx_label c = if Ctx.is_none c then "none" else Ctx.to_string c

let verdict decode encode frame =
  match decode frame with
  | Error e -> Printf.sprintf "error %s %d" (ctor e) (Error.to_code e)
  | Ok (m, c) ->
    Printf.sprintf "ok ctx=%s same=%b %S" (ctx_label c)
      (encode ~json:(Proto.is_json frame) ~ctx:c m = frame)
      (encode ~json:false ~ctx:c m)

let request_verdict =
  verdict Proto.decode_request_ctx (fun ~json ~ctx r -> Proto.encode_request ~json ~ctx r)

let reply_verdict =
  verdict Proto.decode_reply_ctx (fun ~json ~ctx r -> Proto.encode_reply ~json ~ctx r)

let show kind name frame v = Printf.printf "%s %s\n  frame %S\n  %s\n" kind name frame v

let every_encoding kind name encode verdict =
  List.iter
    (fun (enc, json) ->
      List.iter
        (fun (cname, c) ->
          let frame = encode ~json ~ctx:c in
          show kind (Printf.sprintf "%s %s ctx=%s" name enc cname) frame (verdict frame))
        [ ("none", Ctx.none); ("real", ctx) ])
    [ ("text", false); ("json", true) ]

let errors =
  [
    Error.Parse { line = 3; msg = "unexpected token \\ and\nan embedded newline" };
    Error.Invalid_path "not a dipath";
    Error.Cyclic "back arc 4 -> 1";
    Error.Bad_index { what = "path"; index = 41 };
    Error.Invalid_op "remove of a dead path";
    Error.Precondition "tenant id must match [A-Za-z0-9_.-]";
    Error.Unsupported_version 9;
    Error.Io "connection reset by peer";
  ]

let requests inst ops : (string * Proto.req) list =
  let t = "t0" in
  [
    ("hello", Proto.Hello 1);
    ("ping", Proto.Ping);
    ("shutdown", Proto.Shutdown);
    ("open", Proto.Open { tenant = t; instance = inst });
    ("add_path", Proto.Add_path { tenant = t; vertices = [ 0; 1; 2 ] });
    ("add_path-empty", Proto.Add_path { tenant = "b.2_x-Y"; vertices = [] });
    ("remove_path", Proto.Remove_path { tenant = t; id = 7 });
    ("add_arc", Proto.Add_arc { tenant = t; tail = 3; head = 0 });
    ("submit", Proto.Submit { tenant = t; ops });
    ("submit-empty", Proto.Submit { tenant = t; ops = [] });
    ("report", Proto.Report { tenant = t });
    ("pi", Proto.Pi { tenant = t });
    ("color_of", Proto.Color_of { tenant = t; id = 1 });
    ("stats", Proto.Stats { tenant = t });
    ("health", Proto.Health { tenant = t });
    ("snapshot", Proto.Snapshot { tenant = t });
    ("evict", Proto.Evict { tenant = t });
    ("dstats", Proto.Dstats);
    ("dhealth", Proto.Dhealth);
    ("tracedump", Proto.Trace_dump { last = 64 });
  ]

let replies inst : (string * Proto.reply) list =
  let rep = { Proto.n_wavelengths = 3; pi = 2; optimal = false; method_name = "theorem1" } in
  let rollup =
    {
      Proto.l_count = 158; l_p50 = 640; l_p90 = 1800; l_p99 = 4200; l_p999 = 9000;
      l_max = 8800; l_ex_ns = 8800; l_ex_trace = 0x2bad5eed;
    }
  in
  let empty =
    {
      Proto.l_count = 0; l_p50 = 0; l_p90 = 0; l_p99 = 0; l_p999 = 0; l_max = 0;
      l_ex_ns = 0; l_ex_trace = 0;
    }
  in
  let row tenant healthy =
    {
      Proto.r_tenant = tenant; r_shard = 3; r_paths = 5; r_pi = 2; r_ops = 9;
      r_add_p50 = 500; r_add_p99 = 900; r_healthy = healthy;
    }
  in
  [
    ("hello", Ok (Proto.R_hello 1));
    ("pong", Ok Proto.R_pong);
    ("bye", Ok Proto.R_bye);
    ("open", Ok (Proto.R_open rep));
    ("path", Ok (Proto.R_path 7));
    ("removed", Ok (Proto.R_removed 0));
    ("arc", Ok (Proto.R_arc 3));
    ("report", Ok (Proto.R_report { rep with optimal = true }));
    ("pi", Ok (Proto.R_pi 2));
    ("color", Ok (Proto.R_color 1));
    ( "stats",
      Ok
        (Proto.R_stats
           {
             Engine.ops = 1; warm_hits = 2; fresh_colors = 3; repairs = 4; repair_flips = 5;
             shrink_recolors = 6; warm_removes = 7; fallbacks = 8; full_solves = 9;
             rejected = 10;
           }) );
    ( "health",
      Ok
        (Proto.R_health
           {
             Proto.healthy = true; add_p50 = 120; add_p99 = 3400; remove_p50 = 5;
             remove_p99 = 97; warm_hit_recent = 2. /. 3.; warm_hit_lifetime = 0.1;
             fallback_streak = 1;
           }) );
    ( "health-integral",
      Ok
        (Proto.R_health
           {
             Proto.healthy = false; add_p50 = 0; add_p99 = 0; remove_p50 = 0;
             remove_p99 = 0; warm_hit_recent = 1.0; warm_hit_lifetime = 0.;
             fallback_streak = 0;
           }) );
    ( "outcomes",
      Ok
        (Proto.R_outcomes
           {
             outcomes = [| Ok (Proto.O_path 4); Ok (Proto.O_removed 1); Ok (Proto.O_arc 2) |];
             after = rep;
           }) );
    ( "outcomes-errors",
      Ok
        (Proto.R_outcomes
           { outcomes = Array.of_list (List.map (fun e -> Error e) errors); after = rep }) );
    ("outcomes-none", Ok (Proto.R_outcomes { outcomes = [||]; after = rep }));
    ("snapshot", Ok (Proto.R_snapshot inst));
    ("evicted", Ok Proto.R_evicted);
    ( "dstats",
      Ok
        (Proto.R_dstats
           {
             Proto.d_shards = 4; d_sessions = 2; d_add = rollup; d_remove = empty;
             d_tenants = [ row "t0" true; row "b.2_x-Y" false ];
           }) );
    ( "dstats-empty",
      Ok
        (Proto.R_dstats
           { Proto.d_shards = 1; d_sessions = 0; d_add = empty; d_remove = empty; d_tenants = [] })
    );
    ( "dhealth",
      Ok
        (Proto.R_dhealth
           { Proto.dh_healthy = false; dh_sessions = 2; dh_unhealthy = [ "a"; "b.2_x-Y" ] }) );
    ( "dhealth-empty",
      Ok (Proto.R_dhealth { Proto.dh_healthy = true; dh_sessions = 0; dh_unhealthy = [] }) );
    ("trace", Ok (Proto.R_trace "{\"traceEvents\": [\n  {\"ph\": \"X\"}\n]}\n"));
    ("trace-empty", Ok (Proto.R_trace ""));
  ]
  @ List.map (fun e -> ("err-" ^ String.lowercase_ascii (ctor e), Error e)) errors

(* Cuts of a text frame's body: a quarter, half, three quarters in, and
   one byte short. *)
let truncations frame =
  let head = String.index frame '\n' + 1 in
  let body = String.length frame - head in
  List.map
    (fun k -> (Printf.sprintf "cut@%d" k, String.sub frame 0 (head + k)))
    [ body / 4; body / 2; 3 * body / 4; body - 1 ]

let odd_requests inst ops =
  let j = Printf.sprintf "{\"wlrpc\": 1, %s}" in
  [
    ("int 0x10", "wlrpc 1 remove_path t0 0x10\n");
    ("int +5", "wlrpc 1 remove_path t0 +5\n");
    ("int 1_0", "wlrpc 1 remove_path t0 1_0\n");
    ("int negative", "wlrpc 1 color_of t0 -3\n");
    ("int forms in a vertex list", "wlrpc 1 add_path t0 0x1 +2 3_0 -4 0b11 0o7\n");
    ("int overflow", "wlrpc 1 remove_path t0 99999999999999999999\n");
    ("int 18 digits", "wlrpc 1 remove_path t0 123456789012345678\n");
    ("int 19 digits", "wlrpc 1 remove_path t0 1234567890123456789\n");
    ("int empty sign", "wlrpc 1 remove_path t0 -\n");
    ("version 0x1", "wlrpc 0x1 ping\n");
    ("version +1", "wlrpc +1 ping\n");
    ("version 0_1", "wlrpc 0_1 ping\n");
    ("runs of spaces", "wlrpc  1   add_path   t0  1   2  \n");
    ("leading spaces", "   wlrpc 1 ping\n");
    ("trailing spaces", "wlrpc 1 ping   \n");
    ("spaces around ctx", "wlrpc 1   ctx=1:2   ping\n");
    ("tab in a token", "wlrpc 1 remove_path t0 5\t\n");
    ("tab separator", "wlrpc\t1 ping\n");
    ("crlf", "wlrpc 1 ping\r\n");
    ("no newline", "wlrpc 1 ping");
    ("body after a bodiless verb", "wlrpc 1 ping\ntrailing body\n");
    ("extra token", "wlrpc 1 ping extra\n");
    ("missing token", "wlrpc 1 remove_path t0\n");
    ("missing tenant", "wlrpc 1 report\n");
    ("bad tenant", "wlrpc 1 report bad/tenant\n");
    ("long tenant", "wlrpc 1 report " ^ String.make 129 'a' ^ "\n");
    ("max tenant", "wlrpc 1 report " ^ String.make 128 'a' ^ "\n");
    ("negative tracedump", "wlrpc 1 tracedump -1\n");
    ("hello other version", "wlrpc 1 hello 7\n");
    ("unknown verb", "wlrpc 1 frobnicate\n");
    ("reply verb as request", "wlrpc 1 ok pong\n");
    ("no verb", "wlrpc 1\n");
    ("empty frame", "");
    ("newline only", "\n");
    ("no header", "hello 1\n");
    ("bad version", "wlrpc x ping\n");
    ("wrong version", "wlrpc 2 ping\n");
    ("wrong version, garbage after", "wlrpc 2 garbage garbage");
    ("wrong version, bad ctx", "wlrpc 2 ctx=zz ping\n");
    ("open without body", "wlrpc 1 open t0\n");
    ("open cyclic body", "wlrpc 1 open t0\ndag 2\narc 0 1\narc 1 0\n");
    ("open non-dipath", "wlrpc 1 open t0\ndag 3\narc 0 1\npath 0 2\n");
    ("open future version", "wlrpc 1 open t0\nwl 9\ndag 1\n");
    ("submit without body", "wlrpc 1 submit t0\n");
    ("submit bad op", "wlrpc 1 submit t0\nwlops 1\nfly 1 2\n");
    (* JSON *)
    ("json wrong version", "{\"wlrpc\": 2, \"verb\": \"ping\"}");
    ("json string version", "{\"wlrpc\": \"1\", \"verb\": \"ping\"}");
    ("json no version", "{\"verb\": \"ping\"}");
    ("json no verb", j "\"tenant\": \"t0\"");
    ("json unknown verb", j "\"verb\": \"frobnicate\"");
    ("json extra field", j "\"verb\": \"ping\", \"x\": [1, {\"y\": null}]");
    ("json duplicate key", j "\"verb\": \"remove_path\", \"tenant\": \"a\", \"tenant\": \"b\", \"id\": 1");
    ("json missing tenant", j "\"verb\": \"report\"");
    ("json bad tenant", j "\"verb\": \"report\", \"tenant\": \"a b\"");
    ("json float id", j "\"verb\": \"remove_path\", \"tenant\": \"t0\", \"id\": 1.0");
    ("json string id", j "\"verb\": \"remove_path\", \"tenant\": \"t0\", \"id\": \"1\"");
    ("json bad vertex", j "\"verb\": \"add_path\", \"tenant\": \"t0\", \"vertices\": [1, \"2\"]");
    ("json empty vertices", j "\"verb\": \"add_path\", \"tenant\": \"t0\", \"vertices\": []");
    ("json missing endpoint", j "\"verb\": \"add_arc\", \"tenant\": \"t0\", \"from\": 1");
    ("json hello float", j "\"verb\": \"hello\", \"version\": 1.0");
    ("json open not an object", j "\"verb\": \"open\", \"tenant\": \"t0\", \"instance\": [1]");
    ("json open cyclic", j "\"verb\": \"open\", \"tenant\": \"t0\", \"instance\": {\"vertices\": 2, \"arcs\": [[0, 1], [1, 0]]}");
    ("json submit not an array", j "\"verb\": \"submit\", \"tenant\": \"t0\", \"ops\": {}");
    ("json submit bad op", j "\"verb\": \"submit\", \"tenant\": \"t0\", \"ops\": [{\"op\": \"fly\"}]");
    ("json truncated", "{\"wlrpc\": 1, \"verb\": \"pi");
    ("json not an object", "[1, 2]");
    ("json trailing garbage", j "\"verb\": \"ping\"" ^ " x");
  ]
  @ List.map
      (fun (k, f) -> ("open truncated " ^ k, f))
      (truncations (Proto.encode_request (Proto.Open { tenant = "t0"; instance = inst })))
  @ List.map
      (fun (k, f) -> ("submit truncated " ^ k, f))
      (truncations (Proto.encode_request (Proto.Submit { tenant = "t0"; ops })))

(* The damaged ctx fields of the wlrpc_frame oracle. *)
let ctx_corruptions =
  [
    ("non-hex trace id", "wlrpc 1 ctx=zz:1 ping\n");
    ("zero trace id", "wlrpc 1 ctx=0:5 ping\n");
    ("missing span id", "wlrpc 1 ctx=12 ping\n");
    ("empty span id", "wlrpc 1 ctx=12: ping\n");
    ("empty value", "wlrpc 1 ctx= ping\n");
    ("three fields", "wlrpc 1 ctx=1:2:3 ping\n");
    ("oversized id", "wlrpc 1 ctx=12345678123456781:2 ping\n");
    ("signed id", "wlrpc 1 ctx=-1:2 ping\n");
    ("duplicate ctx", "wlrpc 1 ctx=1:2 ctx=3:4 ping\n");
    ("ctx after verb", "wlrpc 1 ping ctx=1:2\n");
    ("json non-string ctx", "{\"wlrpc\": 1, \"ctx\": 5, \"verb\": \"ping\"}");
    ("json malformed ctx", "{\"wlrpc\": 1, \"ctx\": \"junk\", \"verb\": \"ping\"}");
    ("json empty ctx", "{\"wlrpc\": 1, \"ctx\": \"\", \"verb\": \"ping\"}");
    ("json zero trace", "{\"wlrpc\": 1, \"ctx\": \"0:5\", \"verb\": \"ping\"}");
  ]

let odd_replies =
  let j = Printf.sprintf "{\"wlrpc\": 1, %s}" in
  let ok = Printf.sprintf "{\"wlrpc\": 1, \"ok\": {%s}}" in
  let err = Printf.sprintf "{\"wlrpc\": 1, \"err\": {%s}}" in
  let rollup = "158 640 1800 4200 9000 8800 8800" in
  [
    ("int 0x10", "wlrpc 1 ok path 0x10\n");
    ("int +5", "wlrpc 1 ok path +5\n");
    ("int 1_0", "wlrpc 1 ok path 1_0\n");
    ("runs of spaces", "wlrpc 1  ok   report 3  2 true   theorem1 \n");
    ("bool spelling", "wlrpc 1 ok report 3 2 True theorem1\n");
    ("float forms", "wlrpc 1 ok health true 1 2 3 4 0x1p-1 1_0.5 0\n");
    ("float nan", "wlrpc 1 ok health true 1 2 3 4 nan inf 0\n");
    ("float integer", "wlrpc 1 ok health true 1 2 3 4 1 0 0\n");
    ("health missing token", "wlrpc 1 ok health true 1 2 3 4 0.5 0.5\n");
    ("stats extra token", "wlrpc 1 ok stats 1 2 3 4 5 6 7 8 9 10 11\n");
    ("outcomes blank lines", "wlrpc 1 ok outcomes 1 1 1 true theorem1\n\n\noutcome path 0\n\n");
    ("outcomes count too high", "wlrpc 1 ok outcomes 2 1 1 true theorem1\noutcome path 0\n");
    ("outcomes count negative", "wlrpc 1 ok outcomes -1 1 1 true theorem1\n");
    ("outcomes bad line", "wlrpc 1 ok outcomes 1 1 1 true theorem1\noutcome fly 0\n");
    ("outcomes spaced line", "wlrpc 1 ok outcomes 1 1 1 true theorem1\n  outcome   arc  0x3 \n");
    ("outcomes error line", "wlrpc 1 ok outcomes 1 1 1 true theorem1\noutcome err 69 invalid_op dead  path\n");
    ("dstats hex ff_ff", "wlrpc 1 ok dstats 1 0 0 " ^ rollup ^ " ff_ff " ^ rollup ^ " 0\n");
    ("dstats hex 0x10", "wlrpc 1 ok dstats 1 0 0 " ^ rollup ^ " 0x10 " ^ rollup ^ " 0\n");
    ("dstats hex negative", "wlrpc 1 ok dstats 1 0 0 " ^ rollup ^ " -5 " ^ rollup ^ " 0\n");
    ("dstats short rollup", "wlrpc 1 ok dstats 1 0 0 " ^ rollup ^ " 0 " ^ rollup ^ "\n");
    ("dstats bad tenant row", "wlrpc 1 ok dstats 1 1 1 " ^ rollup ^ " 0 " ^ rollup ^ " 0\ntenant a/b 0 0 0 0 0 0 true\n");
    ("dstats tenant count", "wlrpc 1 ok dstats 1 1 2 " ^ rollup ^ " 0 " ^ rollup ^ " 0\ntenant a 0 0 0 0 0 0 true\n");
    ("dhealth count mismatch", "wlrpc 1 ok dhealth false 2 1 a b\n");
    ("dhealth bad tenant", "wlrpc 1 ok dhealth false 2 1 a/b\n");
    ("trace no body", "wlrpc 1 ok trace");
    ("snapshot truncated", "wlrpc 1 ok snapshot\ndag 3\narc 0 1\npath 0 1 2\n");
    ("unknown reply verb", "wlrpc 1 ok frobnicate\n");
    ("neither ok nor err", "wlrpc 1 maybe pong\n");
    ("wrong version", "wlrpc 2 ok pong\n");
    (* error frames *)
    ("err unknown ctor, known code", "wlrpc 1 err 69 frobnicate something  went\\nwrong\n");
    ("err unknown ctor, unknown code", "wlrpc 1 err 99 frobnicate x\n");
    ("err parse without line", "wlrpc 1 err 65 parse\n");
    ("err parse rendered line", "wlrpc 1 err 65 frobnicate line 4: bad token\n");
    ("err version with extra token", "wlrpc 1 err 71 unsupported_version 3 4\n");
    ("err bad index not an int", "wlrpc 1 err 68 bad_index x what\n");
    ("err code not an int", "wlrpc 1 err x parse 0 m\n");
    ("err nothing", "wlrpc 1 err\n");
    ("err code only", "wlrpc 1 err 65\n");
    ("err spaced message", "wlrpc 1 err 65 parse 3   spaced   message  \n");
    ("err escapes", "wlrpc 1 err 74 io a\\\\b\\nc\\qd\\\n");
    ("err code mismatch", "wlrpc 1 err 74 cyclic loop\n");
    (* JSON *)
    ("json err missing fields parse", err "\"code\": 65, \"ctor\": \"parse\"");
    ("json err missing fields bad_index", err "\"code\": 68, \"ctor\": \"bad_index\"");
    ("json err missing fields version", err "\"code\": 71, \"ctor\": \"unsupported_version\"");
    ("json err missing msg", err "\"code\": 66, \"ctor\": \"cyclic\"");
    ("json err unknown ctor", err "\"code\": 69, \"ctor\": \"mystery\", \"msg\": \"m\"");
    ("json err unknown ctor and code", err "\"code\": 99, \"ctor\": \"mystery\"");
    ("json err missing code", err "\"ctor\": \"parse\"");
    ("json err missing ctor", err "\"code\": 65");
    ("json err and ok", j "\"ok\": {\"verb\": \"pong\"}, \"err\": {\"code\": 74, \"ctor\": \"io\", \"msg\": \"x\"}");
    ("json neither ok nor err", j "\"verb\": \"pong\"");
    ("json ok without verb", ok "\"id\": 1");
    ("json unknown reply verb", ok "\"verb\": \"frobnicate\"");
    ("json health integer rates", ok "\"verb\": \"health\", \"healthy\": true, \"add_p50\": 1, \"add_p99\": 2, \"remove_p50\": 3, \"remove_p99\": 4, \"warm_hit_recent\": 1, \"warm_hit_lifetime\": 0, \"fallback_streak\": 0");
    ("json outcome first key wins", ok "\"verb\": \"outcomes\", \"w\": 1, \"pi\": 1, \"optimal\": true, \"method\": \"m\", \"outcomes\": [{\"path\": \"x\", \"arc\": 3}]");
    ("json outcome bad element", ok "\"verb\": \"outcomes\", \"w\": 1, \"pi\": 1, \"optimal\": true, \"method\": \"m\", \"outcomes\": [{}]");
    ("json dstats bad row", ok "\"verb\": \"dstats\", \"shards\": 1, \"sessions\": 0, \"add\": {\"count\": 0, \"p50\": 0, \"p90\": 0, \"p99\": 0, \"p999\": 0, \"max\": 0, \"ex_ns\": 0, \"ex_trace\": 0}, \"remove\": {\"count\": 0, \"p50\": 0, \"p90\": 0, \"p99\": 0, \"p999\": 0, \"max\": 0, \"ex_ns\": 0, \"ex_trace\": 0}, \"tenants\": [{\"tenant\": \"a b\"}]");
    ("json snapshot missing instance", ok "\"verb\": \"snapshot\"");
    ("json trace not a string", ok "\"verb\": \"trace\", \"doc\": 5");
    ("json wrong version", "{\"wlrpc\": 2, \"ok\": {\"verb\": \"pong\"}}");
  ]

let () =
  let inst = instance () in
  let ops = [ Engine.Add_path [ 0; 1; 2 ]; Engine.Remove_path 1; Engine.Add_arc (0, 3) ] in
  print_endline "# wlrpc/1 wire corpus: see test/gen_proto_corpus.ml";
  List.iter
    (fun (name, r) ->
      every_encoding "request" name
        (fun ~json ~ctx -> Proto.encode_request ~json ~ctx r)
        request_verdict)
    (requests inst ops);
  List.iter
    (fun (name, r) ->
      every_encoding "reply" name (fun ~json ~ctx -> Proto.encode_reply ~json ~ctx r) reply_verdict)
    (replies inst);
  List.iter
    (fun (name, f) -> show "odd-request" name f (request_verdict f))
    (odd_requests inst ops);
  List.iter (fun (name, f) -> show "ctx-corruption" name f (request_verdict f)) ctx_corruptions;
  List.iter (fun (name, f) -> show "odd-reply" name f (reply_verdict f)) odd_replies
