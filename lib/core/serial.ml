open Wl_digraph
module Dag = Wl_dag.Dag
module Jsonx = Wl_json.Jsonx

(* Version 2 only adds the [wl 2] header line; the body grammar is shared.
   Version 1 (headerless) output is kept byte-identical to the historical
   format so checked-in fixtures and golden files stay stable. *)
let current_version = 2

let body_to_buffer buf inst =
  let g = Instance.graph inst in
  Buffer.add_string buf (Printf.sprintf "dag %d\n" (Digraph.n_vertices g));
  Digraph.iter_vertices
    (fun v ->
      let l = Digraph.label g v in
      if l <> Printf.sprintf "v%d" v then
        Buffer.add_string buf (Printf.sprintf "vlabel %d %s\n" v l))
    g;
  Digraph.iter_arcs
    (fun _ u v -> Buffer.add_string buf (Printf.sprintf "arc %d %d\n" u v))
    g;
  List.iter
    (fun p ->
      Buffer.add_string buf "path";
      List.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v)) (Dipath.vertices p);
      Buffer.add_char buf '\n')
    (Instance.paths_list inst)

let to_string ?(version = current_version) inst =
  if version < 1 || version > current_version then
    invalid_arg (Printf.sprintf "Serial.to_string: unknown version %d" version);
  let buf = Buffer.create 1024 in
  if version >= 2 then Buffer.add_string buf (Printf.sprintf "wl %d\n" version);
  body_to_buffer buf inst;
  Buffer.contents buf

(* --- text reader -------------------------------------------------------------

   One pass of [Scan] over the text.  Arcs are only collected on the way,
   their ends in growable int arrays; [Digraph.of_arcs] builds the graph
   once the text is read.  The first error in file order wins: when a
   line fails, an arc that [Digraph.add_arc] would have rejected on an
   earlier line is reported instead. *)

type ints = { mutable a : int array; mutable len : int }

let ints () = { a = [||]; len = 0 }

let push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make (max 64 (2 * b.len)) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  Array.unsafe_set b.a b.len x;
  b.len <- b.len + 1

let contents b = Array.sub b.a 0 b.len

type reader = {
  sc : Scan.t;
  mutable version : int; (* 0 before a 'wl' header *)
  mutable n : int; (* vertex count; -1 before 'dag' *)
  src : ints;
  dst : ints;
  mutable labels_rev : (Digraph.vertex * string) list;
  mutable paths_rev : (int * Digraph.vertex array) list; (* line, vertices *)
}

exception Fail of Error.t

let fail r msg = raise (Fail (Error.Parse { line = Scan.line r.sc; msg }))

let shape r ok expected = if not ok then fail r ("expected '" ^ expected ^ "'")

(* The next token, as an integer. *)
let int r =
  ignore (Scan.next_token r.sc);
  try Scan.int r.sc
  with Scan.Not_int -> fail r (Printf.sprintf "not an integer: %S" (Scan.token r.sc))

(* A line's directive, its first token current.  Each checks its shape
   (token count) first, then its conditions in a fixed order: the order
   decides which error a bad line reports. *)
let directive r =
  let sc = r.sc in
  if Scan.is sc "arc" then begin
    shape r (Scan.tokens sc = 3) "arc U V";
    if r.n < 0 then fail r "'arc' before 'dag'";
    let u = int r in
    let v = int r in
    push r.src u;
    push r.dst v
  end
  else if Scan.is sc "path" then begin
    if r.n < 0 then fail r "'path' before 'dag'";
    let verts = Array.make (Scan.tokens sc - 1) 0 in
    for i = 0 to Array.length verts - 1 do
      verts.(i) <- int r
    done;
    r.paths_rev <- (Scan.line sc, verts) :: r.paths_rev
  end
  else if Scan.is sc "vlabel" then begin
    shape r (Scan.tokens sc = 3) "vlabel V NAME";
    if r.n < 0 then fail r "'vlabel' before 'dag'";
    let v = int r in
    if v < 0 || v >= r.n then fail r "vertex out of range";
    ignore (Scan.next_token sc);
    r.labels_rev <- (v, Scan.token sc) :: r.labels_rev
  end
  else if Scan.is sc "dag" then begin
    shape r (Scan.tokens sc = 2) "dag N";
    let n = int r in
    if r.n >= 0 then fail r "duplicate 'dag' header";
    if n < 0 then fail r "vertex count must be non-negative";
    r.n <- n
  end
  else if Scan.is sc "wl" then begin
    shape r (Scan.tokens sc = 2) "wl N";
    let v = int r in
    if r.version > 0 then fail r "duplicate 'wl' header";
    if r.n >= 0 then fail r "'wl' header must come before 'dag'";
    if v < 1 || v > current_version then raise (Fail (Error.Unsupported_version v));
    r.version <- v
  end
  else fail r (Printf.sprintf "unknown directive %S" (Scan.token sc))

(* [Digraph.of_arcs], or else the first arc it rejects (by id) with
   [Digraph.add_arc]'s message for it. *)
let graph_of_arcs n ~src ~dst =
  match Digraph.of_arcs n ~src ~dst with
  | g -> Ok g
  | exception Invalid_argument _ ->
    let g = Digraph.create () in
    Digraph.add_vertices g n;
    let rec first a =
      if a >= Array.length src then Ok g
      else
        match Digraph.add_arc g src.(a) dst.(a) with
        | _ -> first (a + 1)
        | exception Invalid_argument msg -> Error (a, msg)
    in
    first 0

(* The line of arc [a]: the text's [a]-th 'arc' line (from 0), as every
   line before the reader stopped was read whole. *)
let line_of_arc text a =
  let sc = Scan.create text and seen = ref (-1) in
  while !seen < a && Scan.next_line sc do
    if Scan.next_token sc && Scan.is sc "arc" then incr seen
  done;
  Scan.line sc

let graph_of_reader text r =
  match graph_of_arcs (max r.n 0) ~src:(contents r.src) ~dst:(contents r.dst) with
  | Ok g -> Ok g
  | Error (a, msg) -> Error (Error.Parse { line = line_of_arc text a; msg })

let finish text r =
  if r.n < 0 then Error (Error.Parse { line = 0; msg = "missing 'dag <n>' header" })
  else
    match graph_of_reader text r with
    | Error e -> Error e
    | Ok g -> (
      List.iter (fun (v, l) -> Digraph.set_label g v l) (List.rev r.labels_rev);
      match Dag.of_digraph g with
      | Error msg -> Error (Error.Cyclic msg)
      | Ok dag ->
        let rec build acc = function
          | [] -> Ok (Instance.make dag (List.rev acc))
          | (line, verts) :: rest -> (
            match Dipath.of_vertex_array g verts with
            | p -> build (p :: acc) rest
            | exception Invalid_argument msg ->
              Error (Error.Invalid_path (Printf.sprintf "line %d: bad path: %s" line msg)))
        in
        build [] (List.rev r.paths_rev))

let of_string text =
  let r =
    {
      sc = Scan.create text;
      version = 0;
      n = -1;
      src = ints ();
      dst = ints ();
      labels_rev = [];
      paths_rev = [];
    }
  in
  match
    while Scan.next_line r.sc do
      if Scan.next_token r.sc then directive r
    done
  with
  | () -> finish text r
  | exception Fail e -> (
    match graph_of_reader text r with Error earlier -> Error earlier | Ok _ -> Error e)

(* --- JSON mirror ----------------------------------------------------------- *)

let to_jsonx inst =
  let g = Instance.graph inst in
  let labels =
    let acc = ref [] in
    Digraph.iter_vertices
      (fun v ->
        let l = Digraph.label g v in
        if l <> Printf.sprintf "v%d" v then
          acc := (string_of_int v, Jsonx.Str l) :: !acc)
      g;
    List.rev !acc
  in
  let arcs =
    List.map (fun (u, v) -> Jsonx.Arr [ Jsonx.Int u; Jsonx.Int v ]) (Digraph.arcs g)
  in
  let paths =
    List.map
      (fun p -> Jsonx.Arr (List.map (fun v -> Jsonx.Int v) (Dipath.vertices p)))
      (Instance.paths_list inst)
  in
  Jsonx.Obj
    ([
       ("format", Jsonx.Str "wl-instance");
       ("version", Jsonx.Int current_version);
       ("vertices", Jsonx.Int (Digraph.n_vertices g));
     ]
    @ (if labels = [] then [] else [ ("labels", Jsonx.Obj labels) ])
    @ [ ("arcs", Jsonx.Arr arcs); ("paths", Jsonx.Arr paths) ])

let to_json ?pretty inst = Jsonx.to_string ?pretty (to_jsonx inst)

let json_err msg = Error (Error.Parse { line = 0; msg })

let int_pair_of_json what j =
  match Jsonx.to_list j with
  | Some [ a; b ] -> (
    match (Jsonx.to_int a, Jsonx.to_int b) with
    | Some u, Some v -> Ok (u, v)
    | _ -> json_err (Printf.sprintf "%s: expected a pair of integers" what))
  | _ -> json_err (Printf.sprintf "%s: expected a pair of integers" what)

let int_list_of_json what j =
  match Jsonx.to_list j with
  | None -> json_err (Printf.sprintf "%s: expected an array of integers" what)
  | Some xs ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> (
        match Jsonx.to_int x with
        | Some v -> go (v :: acc) rest
        | None -> json_err (Printf.sprintf "%s: expected an array of integers" what))
    in
    go [] xs

let rec map_result f = function
  | [] -> Ok []
  | x :: rest -> (
    match f x with
    | Error _ as e -> e
    | Ok y -> ( match map_result f rest with Ok ys -> Ok (y :: ys) | Error _ as e -> e))

let of_jsonx = function
  | Jsonx.Obj _ as json -> (
    (match Jsonx.member "format" json with
    | Some (Jsonx.Str "wl-instance") | None -> Ok ()
    | Some (Jsonx.Str other) -> json_err (Printf.sprintf "unknown format %S" other)
    | Some _ -> json_err "\"format\" must be a string")
    |> function
    | Error _ as e -> e
    | Ok () -> (
      (match Jsonx.member "version" json with
      | None -> Ok ()
      | Some v -> (
        match Jsonx.to_int v with
        | Some v when v >= 1 && v <= current_version -> Ok ()
        | Some v -> Error (Error.Unsupported_version v)
        | None -> json_err "\"version\" must be an integer"))
      |> function
      | Error _ as e -> e
      | Ok () -> (
        match Option.bind (Jsonx.member "vertices" json) Jsonx.to_int with
        | None -> json_err "missing \"vertices\" count"
        | Some n when n < 0 -> json_err "\"vertices\" must be non-negative"
        | Some n -> (
          let arcs_json =
            match Jsonx.member "arcs" json with
            | None -> Ok []
            | Some a -> (
              match Jsonx.to_list a with
              | Some xs -> map_result (int_pair_of_json "arc") xs
              | None -> json_err "\"arcs\" must be an array")
          in
          match arcs_json with
          | Error e -> Error e
          | Ok arcs -> (
            let paths_json =
              match Jsonx.member "paths" json with
              | None -> Ok []
              | Some p -> (
                match Jsonx.to_list p with
                | Some xs -> map_result (int_list_of_json "path") xs
                | None -> json_err "\"paths\" must be an array")
            in
            match paths_json with
            | Error e -> Error e
            | Ok paths -> (
              let arcs = Array.of_list arcs in
              let src = Array.map fst arcs and dst = Array.map snd arcs in
              match graph_of_arcs n ~src ~dst with
              | Error (a, msg) ->
                json_err (Printf.sprintf "arc [%d, %d]: %s" src.(a) dst.(a) msg)
              | Ok g -> (
                (match Jsonx.member "labels" json with
                | None -> Ok ()
                | Some (Jsonx.Obj fields) ->
                  let rec set = function
                    | [] -> Ok ()
                    | (k, l) :: rest -> (
                      match (int_of_string_opt k, Jsonx.to_str l) with
                      | Some v, Some label when v >= 0 && v < n ->
                        Digraph.set_label g v label;
                        set rest
                      | _ -> json_err (Printf.sprintf "bad label entry %S" k))
                  in
                  set fields
                | Some _ -> json_err "\"labels\" must be an object")
                |> function
                | Error _ as e -> e
                | Ok () -> Instance.of_vertex_seqs g paths)))))))
  | _ -> json_err "expected a JSON object"

let of_json text =
  match Jsonx.parse text with Error msg -> json_err msg | Ok json -> of_jsonx json

(* --- files ----------------------------------------------------------------- *)

let write_file ?version path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?version inst))

let read_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Error.Io msg)
  | text ->
    (* Sniff the format: a JSON document starts with '{'. *)
    let rec first_printable i =
      if i >= String.length text then None
      else
        match text.[i] with
        | ' ' | '\t' | '\n' | '\r' -> first_printable (i + 1)
        | c -> Some c
    in
    if first_printable 0 = Some '{' then of_json text else of_string text
