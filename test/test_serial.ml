(* Tests for the text instance format, its versioned header, and the JSON
   mirror. *)

open Helpers
open Wl_core
module Digraph = Wl_digraph.Digraph
module Dipath = Wl_digraph.Dipath
module Traversal = Wl_digraph.Traversal
module Dag = Wl_dag.Dag
module Prng = Wl_util.Prng

let same_instance inst inst' =
  Digraph.equal_structure (Instance.graph inst) (Instance.graph inst')
  && List.equal
       (fun p q -> Dipath.vertices p = Dipath.vertices q)
       (Instance.paths_list inst) (Instance.paths_list inst')

let roundtrip ?version inst =
  match Serial.of_string (Serial.to_string ?version inst) with
  | Error e -> Alcotest.failf "reparse failed: %s" (Error.to_string e)
  | Ok inst' -> same_instance inst inst'

let json_roundtrip ?pretty inst =
  match Serial.of_json (Serial.to_json ?pretty inst) with
  | Error e -> Alcotest.failf "json reparse failed: %s" (Error.to_string e)
  | Ok inst' -> same_instance inst inst'

let test_roundtrip_figures () =
  List.iter
    (fun inst ->
      check "roundtrip v2" true (roundtrip inst);
      check "roundtrip v1" true (roundtrip ~version:1 inst);
      check "roundtrip json" true (json_roundtrip inst);
      check "roundtrip json pretty" true (json_roundtrip ~pretty:true inst))
    [
      Wl_netgen.Figures.fig3 ();
      Wl_netgen.Figures.fig5 3;
      Wl_netgen.Figures.havet 2;
      Wl_netgen.Figures.fig1 4;
    ]

let roundtrip_random =
  qtest "roundtrip on random instances" seed_gen ~count:40 (fun seed ->
      let inst = random_instance seed in
      roundtrip inst && roundtrip ~version:1 inst && json_roundtrip inst)

let test_version_header () =
  let inst = Wl_netgen.Figures.fig3 () in
  let v2 = Serial.to_string inst in
  let v1 = Serial.to_string ~version:1 inst in
  check "v2 has header" true (String.length v2 > 5 && String.sub v2 0 5 = "wl 2\n");
  check "v1 is headerless v2" true (v2 = "wl 2\n" ^ v1);
  (* an explicit v1 header is also accepted *)
  (match Serial.of_string ("wl 1\n" ^ v1) with
  | Ok inst' -> check "wl 1 header accepted" true (same_instance inst inst')
  | Error e -> Alcotest.failf "wl 1 header rejected: %s" (Error.to_string e));
  match Serial.of_string ("wl 99\n" ^ v1) with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error (Error.Unsupported_version 99) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let test_labels_roundtrip () =
  let inst = Wl_netgen.Figures.fig3 () in
  match Serial.of_string (Serial.to_string inst) with
  | Error e -> Alcotest.failf "reparse failed: %s" (Error.to_string e)
  | Ok inst' ->
    check "labels preserved" true (Digraph.label (Instance.graph inst') 0 = "a1")

let test_labels_json_roundtrip () =
  let inst = Wl_netgen.Figures.fig3 () in
  match Serial.of_json (Serial.to_json inst) with
  | Error e -> Alcotest.failf "json reparse failed: %s" (Error.to_string e)
  | Ok inst' ->
    check "labels preserved" true (Digraph.label (Instance.graph inst') 0 = "a1")

let parse_error expected text =
  match Serial.of_string text with
  | Ok _ -> Alcotest.failf "expected parse error %S" expected
  | Error e ->
    let msg = Error.to_string e in
    check (Printf.sprintf "error mentions %S (got %S)" expected msg) true
      (contains msg expected)

let test_parse_errors () =
  parse_error "missing 'dag" "# only a comment\n";
  parse_error "before 'dag'" "arc 0 1\ndag 2";
  parse_error "duplicate" "dag 2\ndag 3";
  parse_error "unknown directive" "dag 2\nfoo 1";
  parse_error "not an integer" "dag 2\narc 0 x";
  parse_error "no such vertex" "dag 2\narc 0 5";
  parse_error "missing arc" "dag 3\narc 0 1\npath 0 2";
  parse_error "out of range" "dag 2\nvlabel 7 z";
  parse_error "self-loop" "dag 2\narc 1 1";
  parse_error "before 'dag'" "dag 2\nwl 2"

let json_error expected text =
  match Serial.of_json text with
  | Ok _ -> Alcotest.failf "expected json error %S" expected
  | Error e ->
    let msg = Error.to_string e in
    check (Printf.sprintf "json error mentions %S (got %S)" expected msg) true
      (contains msg expected)

let test_json_errors () =
  json_error "expected" "[1, 2]";
  (* syntax error *)
  json_error "vertices" "{\"format\": \"wl-instance\"}";
  json_error "pair of integers" "{\"vertices\": 3, \"arcs\": [[0]]}";
  json_error "self-loop" "{\"vertices\": 3, \"arcs\": [[1, 1]]}";
  json_error "missing arc" "{\"vertices\": 3, \"arcs\": [[0, 1]], \"paths\": [[0, 2]]}";
  json_error "unknown format" "{\"format\": \"nope\", \"vertices\": 1}";
  (match Serial.of_json "{\"vertices\": 2, \"version\": 99}" with
  | Error (Error.Unsupported_version 99) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "future json version accepted");
  json_error "not a DAG" "{\"vertices\": 2, \"arcs\": [[0, 1], [1, 0]]}"

let test_comments_and_blanks () =
  let text = "# header\n\ndag 3  # three vertices\narc 0 1\n  arc 1 2  \n\npath 0 1 2\n" in
  match Serial.of_string text with
  | Error e -> Alcotest.failf "should parse: %s" (Error.to_string e)
  | Ok inst ->
    check_int "paths" 1 (Instance.n_paths inst);
    check_int "arcs" 2 (Digraph.n_arcs (Instance.graph inst))

let test_file_io () =
  let inst = Wl_netgen.Figures.fig5 2 in
  let tmp = Filename.temp_file "wl_test" ".wl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Serial.write_file tmp inst;
      match Serial.read_file tmp with
      | Ok inst' -> check "file roundtrip" true (same_instance inst inst')
      | Error e -> Alcotest.failf "read failed: %s" (Error.to_string e))

let test_file_io_json () =
  let inst = Wl_netgen.Figures.fig5 2 in
  let tmp = Filename.temp_file "wl_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc (Serial.to_json ~pretty:true inst);
      close_out oc;
      (* read_file sniffs the leading '{' and dispatches to the JSON reader *)
      match Serial.read_file tmp with
      | Ok inst' -> check "json file roundtrip" true (same_instance inst inst')
      | Error e -> Alcotest.failf "read failed: %s" (Error.to_string e))

let test_missing_file () =
  match Serial.read_file "/nonexistent/wl-instance.wl" with
  | Ok _ -> Alcotest.fail "read of missing file succeeded"
  | Error (Error.Io _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let test_rejects_directed_cycle () =
  parse_error "not a DAG" "dag 2\narc 0 1\narc 1 0"

(* Determinism across serialization: coloring the reparsed instance gives
   the same wavelengths (arc ids and family order round-trip intact). *)
let deterministic_through_io =
  qtest "theorem1 coloring survives a serialization roundtrip" seed_gen
    ~count:25 (fun seed ->
      let inst = random_nic_instance ~n:14 ~k:10 seed in
      match Serial.of_string (Serial.to_string inst) with
      | Error _ -> false
      | Ok inst' -> Theorem1.color inst = Theorem1.color inst')

let deterministic_through_json =
  qtest "theorem1 coloring survives a JSON roundtrip" seed_gen ~count:25
    (fun seed ->
      let inst = random_nic_instance ~n:14 ~k:10 seed in
      match Serial.of_json (Serial.to_json inst) with
      | Error _ -> false
      | Ok inst' -> Theorem1.color inst = Theorem1.color inst')

(* --- the one-pass reader against the line-by-line one ------------------------ *)

module Ref = struct
  module Dag = Wl_dag.Dag

  (* The line-by-line reader that the one-pass [Serial.of_string]
     replaced, kept verbatim as the differential oracle. *)
  type parse_state = {
    mutable version : int option;
    mutable graph : Digraph.t option;
    mutable paths_rev : (int * int list) list; (* line, vertex sequence *)
  }

  let of_string text =
    let st = { version = None; graph = None; paths_rev = [] } in
    let err lineno msg = Error (Error.Parse { line = lineno; msg }) in
    let lines = String.split_on_char '\n' text in
    let parse_int lineno s =
      match int_of_string_opt s with
      | Some v -> Ok v
      | None -> err lineno (Printf.sprintf "not an integer: %S" s)
    in
    let finish () =
      match st.graph with
      | None -> Error (Error.Parse { line = 0; msg = "missing 'dag <n>' header" })
      | Some g -> (
        match Dag.of_digraph g with
        | Error msg -> Error (Error.Cyclic msg)
        | Ok dag ->
          let rec build acc = function
            | [] -> Ok (Instance.make dag (List.rev acc))
            | (lineno, verts) :: rest -> (
              match Dipath.of_vertices g verts with
              | Ok p -> build (p :: acc) rest
              | Error msg ->
                Error
                  (Error.Invalid_path (Printf.sprintf "line %d: bad path: %s" lineno msg)))
          in
          build [] (List.rev st.paths_rev))
    in
    let rec go lineno = function
      | [] -> finish ()
      | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let words =
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun w -> w <> "")
        in
        match words with
        | [] -> go (lineno + 1) rest
        | "wl" :: [ v ] -> (
          match parse_int lineno v with
          | Error e -> Error e
          | Ok v ->
            if st.version <> None then err lineno "duplicate 'wl' header"
            else if st.graph <> None then err lineno "'wl' header must come before 'dag'"
            else if v < 1 || v > Serial.current_version then Error (Error.Unsupported_version v)
            else begin
              st.version <- Some v;
              go (lineno + 1) rest
            end)
        | "dag" :: [ n ] -> (
          match parse_int lineno n with
          | Error e -> Error e
          | Ok n ->
            if st.graph <> None then err lineno "duplicate 'dag' header"
            else begin
              let g = Digraph.create () in
              Digraph.add_vertices g n;
              st.graph <- Some g;
              go (lineno + 1) rest
            end)
        | "vlabel" :: i :: name :: [] -> (
          match (st.graph, parse_int lineno i) with
          | None, _ -> err lineno "'vlabel' before 'dag'"
          | _, Error e -> Error e
          | Some g, Ok i ->
            if i < 0 || i >= Digraph.n_vertices g then err lineno "vertex out of range"
            else begin
              Digraph.set_label g i name;
              go (lineno + 1) rest
            end)
        | "arc" :: u :: [ v ] -> (
          match (st.graph, parse_int lineno u, parse_int lineno v) with
          | None, _, _ -> err lineno "'arc' before 'dag'"
          | _, Error e, _ | _, _, Error e -> Error e
          | Some g, Ok u, Ok v -> (
            match Digraph.add_arc g u v with
            | _ -> go (lineno + 1) rest
            | exception Invalid_argument msg -> err lineno msg))
        | "path" :: verts -> (
          if st.graph = None then err lineno "'path' before 'dag'"
          else
            let rec ints acc = function
              | [] -> Ok (List.rev acc)
              | w :: ws -> (
                match parse_int lineno w with
                | Ok v -> ints (v :: acc) ws
                | Error e -> Error e)
            in
            match ints [] verts with
            | Error e -> Error e
            | Ok vs ->
              st.paths_rev <- (lineno, vs) :: st.paths_rev;
              go (lineno + 1) rest)
        | word :: _ -> err lineno (Printf.sprintf "unknown directive %S" word))
    in
    go 1 lines
end

let negative_dag_line text line =
  match List.nth_opt (String.split_on_char '\n' text) (line - 1) with
  | None -> false
  | Some l -> (
    let l = match String.index_opt l '#' with Some i -> String.sub l 0 i | None -> l in
    match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim l)) with
    | [ "dag"; n ] -> ( match int_of_string_opt n with Some n -> n < 0 | None -> false)
    | _ -> false)

(* The two deliberate differences, both fixes:
   - a directive with the wrong number of arguments names its shape on
     the line where the old reader called it an unknown directive;
   - a negative 'dag' count is an error on its line where the old reader
     built an empty graph and went on. *)
let allowed_difference text old line msg =
  let shapes = [ ("arc", "arc U V"); ("dag", "dag N"); ("vlabel", "vlabel V NAME"); ("wl", "wl N") ] in
  (match old with
  | Error (Error.Parse { line = l; msg = m }) ->
    l = line
    && List.exists
         (fun (d, shape) ->
           m = Printf.sprintf "unknown directive %S" d && msg = Printf.sprintf "expected '%s'" shape)
         shapes
  | _ -> false)
  || (msg = "vertex count must be non-negative" && negative_dag_line text line)

(* [old] from [Ref]; its order is the one the parent's [Dag.of_digraph]
   took from [Traversal.topological_order]. *)
let same_parse old inst =
  Serial.to_string old = Serial.to_string inst
  && Digraph.arcs (Instance.graph old) = Digraph.arcs (Instance.graph inst)
  && Traversal.topological_order (Instance.graph old)
     = Some (Array.to_list (Dag.topological_order (Instance.dag inst)))

let agree text =
  let old = Ref.of_string text in
  let ok =
    match (old, Serial.of_string text) with
    | Ok a, Ok b -> same_parse a b
    | Error e, Error e' when e = e' -> true
    | _, Error (Error.Parse { line; msg }) -> allowed_difference text old line msg
    | _ -> false
  in
  if not ok then
    Printf.eprintf "parsers disagree on %S:\n  old: %s\n  new: %s\n" text
      (match old with Ok _ -> "Ok" | Error e -> Error.to_string e)
      (match Serial.of_string text with Ok _ -> "Ok" | Error e -> Error.to_string e);
  ok

let rendered seed =
  let inst = random_instance ~n:(4 + (seed mod 9)) ~k:(seed mod 6) seed in
  Serial.to_string ~version:(1 + (seed mod 2)) inst

(* One random edit of [text]; each kind targets a tokenizer rule or an
   error path of the reader. *)
let mutate rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let pick () = Prng.int rng (Array.length lines) in
  let int_forms =
    [| "0x3"; "0b1"; "0o2"; "1_0"; "+1"; "-1"; "-0"; "0000000000000000001"; "00000000000000000002";
       "99999999999999999999"; "4611686018427387904"; "9300000000000000000"; "0x"; "1e2"; "x" |]
  in
  let replace_first_int l =
    match String.split_on_char ' ' l with
    | d :: w :: rest when int_of_string_opt w <> None ->
      String.concat " " (d :: Prng.choose rng int_forms :: rest)
    | _ -> l
  in
  (match Prng.int rng 12 with
  | 0 -> Array.iteri (fun i l -> lines.(i) <- l ^ "\r") lines
  | 1 ->
    let i = pick () in
    lines.(i) <- String.map (fun c -> if c = ' ' && Prng.bool rng then '\t' else c) lines.(i)
  | 2 -> let i = pick () in lines.(i) <- "\t " ^ lines.(i) ^ " \t\012"
  | 3 ->
    let i = pick () in
    let l = lines.(i) in
    let at = Prng.int rng (String.length l + 1) in
    lines.(i) <- String.sub l 0 at ^ "#" ^ String.sub l at (String.length l - at)
  | 4 -> let i = pick () in lines.(i) <- String.concat "   " (String.split_on_char ' ' lines.(i))
  | 5 -> let i = pick () in lines.(i) <- replace_first_int lines.(i)
  | 6 -> let i = pick () in lines.(i) <- lines.(i) ^ "\n" ^ lines.(i)
  | 7 -> let i = pick () in lines.(i) <- lines.(i) ^ Printf.sprintf "\narc %d %d" (Prng.int rng 5) (Prng.int rng 5)
  | 8 -> let i = pick () in lines.(i) <- lines.(i) ^ Printf.sprintf "\narc %d 99" (Prng.int rng 5)
  | 9 ->
    let i = pick () in
    lines.(i) <- Prng.choose rng [| "arc 0 1"; "vlabel 0 x"; "path 0 1"; "wl 2"; "wl 1"; "dag 3" |] ^ "\n" ^ lines.(i)
  | 10 ->
    let i = pick () in
    lines.(i) <- lines.(i) ^ "\n" ^ Prng.choose rng [| "arc 1"; "dag 2 3"; "vlabel 1"; "wl"; "arc 1 2 3"; "dag -3"; "dag"; "path" |]
  | _ -> let i = pick () and j = pick () in let l = lines.(i) in lines.(i) <- lines.(j); lines.(j) <- l);
  String.concat "\n" (Array.to_list lines)

let differential_rendered =
  qtest "one-pass reader agrees with the line-by-line one on rendered instances" seed_gen ~count:60
    (fun seed -> agree (rendered seed))

let differential_mutated =
  qtest "one-pass reader agrees with the line-by-line one on mutated texts" seed_gen ~count:400
    (fun seed ->
      let rng = Prng.create seed in
      let text = ref (rendered seed) in
      for _ = 0 to Prng.int rng 3 do
        text := mutate rng !text
      done;
      agree !text)

let test_differential_fixed_inputs () =
  List.iter
    (fun text -> check (Printf.sprintf "agree on %S" text) true (agree text))
    [
      "";
      "dag 3\r\narc 0 1\r\narc 1 2\r\npath 0 1 2\r\n";
      "dag 3\narc\t0 1";
      "dag 3\narc 0\t1";
      "dag 3\n\tarc 0 1 \t\narc 1 2#c\n  # only a comment\n";
      "dag 3\narc 0  1\narc   1    2";
      "dag 0x3\narc 0b0 0o1\narc 1_0 2\narc +1 2";
      "dag 3\narc 0000000000000000000000001 2";
      "dag 3\narc 99999999999999999999 2";
      "dag 3\narc 9300000000000000000 2";
      "dag 3\narc 0 1\narc 0 1\nfoo";
      "dag 3\narc 0 1\narc 1 1\narc 0 x";
      "dag 3\narc 0 7\nwl 9";
      "dag 3\narc 0 1\narc 0 1\narc 2 2";
      "dag 3\narc 0 1\narc 1 2\narc 0 1\npath 0 2";
      "dag 2\narc 0 1\narc 1 0\npath 0 1";
      "vlabel 0 a\ndag 2";
      "path 0 1\ndag 2";
      "wl 2\nwl 2\ndag 1";
      "wl 0\ndag 1";
      "dag 2\ndag -3";
      "dag 2\nvlabel 1 a#b\nvlabel 1 c\narc 0 1\npath 0 1";
      "dag 4\narc 0 1\narc 1 2\narc 2 3\npath 0 1 3";
      "dag 2\npath\npath 0";
    ]

(* Every prefix of a small fixture: each cut lands in a directive, a
   number or a comment, and both readers must give the same answer. *)
let test_differential_truncations () =
  let text =
    "wl 2\n# fixture\ndag 5\nvlabel 0 a1\nvlabel 3 d1\narc 0 1\narc 1 2\narc 2 3 # c\narc 3 4\narc 1 3\npath 0 1 2\npath 1 3 4\n"
  in
  for len = 0 to String.length text do
    let t = String.sub text 0 len in
    check (Printf.sprintf "agree on prefix %d" len) true (agree t)
  done

let parse_error_is expected text =
  match Serial.of_string text with
  | Error (Error.Parse _ as e) when e = expected -> ()
  | Ok _ -> Alcotest.failf "%S parsed" text
  | Error e -> Alcotest.failf "%S: wrong error %s" text (Error.to_string e)

let test_negative_dag_count () =
  parse_error_is (Error.Parse { line = 1; msg = "vertex count must be non-negative" }) "dag -3";
  parse_error_is
    (Error.Parse { line = 2; msg = "vertex count must be non-negative" })
    "# header\ndag -1\n"

let test_directive_shapes () =
  parse_error_is (Error.Parse { line = 2; msg = "expected 'arc U V'" }) "dag 2\narc 1";
  parse_error_is (Error.Parse { line = 2; msg = "expected 'arc U V'" }) "dag 2\narc 0 1 1";
  parse_error_is (Error.Parse { line = 1; msg = "expected 'dag N'" }) "dag 2 3";
  parse_error_is (Error.Parse { line = 2; msg = "expected 'vlabel V NAME'" }) "dag 2\nvlabel 1";
  parse_error_is (Error.Parse { line = 1; msg = "expected 'wl N'" }) "wl\ndag 2"

let test_first_error_in_file_order () =
  (* the duplicate on line 3 precedes the unknown directive on line 4 *)
  parse_error_is (Error.Parse { line = 3; msg = "Digraph.add_arc: duplicate arc" }) "dag 3\narc 0 1\narc 0 1\nfoo";
  parse_error_is (Error.Parse { line = 2; msg = "Digraph: no such vertex" }) "dag 3\narc 0 7\narc 1 1\narc x";
  parse_error_is (Error.Parse { line = 4; msg = "not an integer: \"x\"" }) "dag 3\narc 0 1\narc 1 2\narc 0 x\narc 0 1"

let suite =
  [
    ( "serial",
      [
        Alcotest.test_case "figure roundtrips" `Quick test_roundtrip_figures;
        roundtrip_random;
        Alcotest.test_case "version header" `Quick test_version_header;
        Alcotest.test_case "labels roundtrip" `Quick test_labels_roundtrip;
        Alcotest.test_case "labels json roundtrip" `Quick test_labels_json_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "json errors" `Quick test_json_errors;
        Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
        Alcotest.test_case "file io" `Quick test_file_io;
        Alcotest.test_case "json file io" `Quick test_file_io_json;
        Alcotest.test_case "missing file" `Quick test_missing_file;
        Alcotest.test_case "rejects directed cycles" `Quick
          test_rejects_directed_cycle;
        deterministic_through_io;
        deterministic_through_json;
        differential_rendered;
        differential_mutated;
        Alcotest.test_case "differential: fixed inputs" `Quick test_differential_fixed_inputs;
        Alcotest.test_case "differential: every truncation" `Quick test_differential_truncations;
        Alcotest.test_case "negative dag count is an error" `Quick test_negative_dag_count;
        Alcotest.test_case "wrong argument count names the shape" `Quick test_directive_shapes;
        Alcotest.test_case "first error in file order" `Quick test_first_error_in_file_order;
      ] );
  ]
