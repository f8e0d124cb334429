(* perfbench: one seeded benchmark run.

     bench.exe --workload route|serve-churn --seed N --seconds S
               --trace 0|1 --wl PATH [--out DIR] [--commit C] [--source D]

   Prints a human report, then as its last line one JSON object with every
   metric the run measured.  Exits 0 when every answer checked out, 1 when
   an op failed or an answer was wrong, 2 when the run could not be set up
   (no result line then).  perfbench/run.py builds this program and wl,
   runs it, and narrows the last line to the metrics BENCHMARK.json names. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let wl = ref "" and out = ref "_perfbench" and commit = ref "unknown" and source = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "route | serve-churn");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: traced per-layer metrics");
      ("--wl", Arg.Set_string wl, "path of the wl executable");
      ("--out", Arg.Set_string out, "directory for sockets, logs and traces");
      ("--commit", Arg.Set_string commit, "commit id to print");
      ("--source", Arg.Set_string source, "source digest to print");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --wl PATH";
  let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt in
  if !wl = "" || not (Sys.file_exists !wl) then die "wl executable not found: %S" !wl;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* a stopped run still stops its daemons: exit runs Daemon's at_exit *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  let mkdir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755 in
  mkdir !out;
  let dir = Filename.concat !out (Printf.sprintf "%s-trace%d" !workload !trace) in
  mkdir dir;
  List.iter (fun f -> let p = Filename.concat dir f in if Sys.file_exists p then Sys.remove p) [ "wld.log"; "trace.json" ];
  let traced = !trace = 1 in
  let run () =
    match !workload with
    | "route" -> if traced then Work_route.traced ~dir ~seed:!seed ~seconds:!seconds else Work_route.measured ~seed:!seed ~seconds:!seconds
    | "serve-churn" ->
      if traced then Work_serve.churn_traced ~wl:!wl ~dir ~seed:!seed ~seconds:!seconds
      else Work_serve.churn_measured ~wl:!wl ~dir ~seed:!seed ~seconds:!seconds
    | w -> die "unknown workload %S" w
  in
  let o =
    try run () with
    | Work_serve.Setup_failed m | Work_route.Op_failed m -> die "set-up failed: %s" m
    | Unix.Unix_error (e, f, a) -> die "%s(%s): %s" f a (Unix.error_message e)
  in
  let context =
    [ ("commit", !commit); ("source", !source); ("workload", !workload); ("seed", string_of_int !seed);
      ("seconds", Printf.sprintf "%g" !seconds); ("trace", string_of_int !trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ())); ("ocaml", Sys.ocaml_version) ]
    @ o.Samples.context
  in
  List.iter (fun (k, v) -> Printf.printf "# %-14s %s\n" k v) context;
  List.iter
    (fun (m : Samples.metric) ->
      Printf.printf "%-34s %18.4f %-6s %s\n" m.name m.value m.unit (if m.note = "" then "" else "(" ^ m.note ^ ")"))
    o.Samples.metrics;
  List.iter print_endline o.Samples.lines;
  List.iter (fun i -> Printf.printf "CHECK FAILED: %s\n" i) o.Samples.issues;
  Printf.printf "attempted %d, failed %d\n" o.Samples.attempted o.Samples.failed;
  let correct = o.Samples.failed = 0 && o.Samples.issues = [] in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let fields =
    List.map
      (fun (m : Samples.metric) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit)
      o.Samples.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    o.Samples.attempted o.Samples.failed (String.concat ", " fields);
  exit (if correct then 0 else 1)
