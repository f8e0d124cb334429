open Wl_core
module Jsonx = Wl_json.Jsonx

type t = Engine.op list

let current_version = 1

let to_string ops =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "wlops %d\n" current_version);
  List.iter
    (fun op ->
      (match op with
      | Engine.Add_path verts ->
        Buffer.add_string buf "path";
        List.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v)) verts
      | Engine.Remove_path pid -> Buffer.add_string buf (Printf.sprintf "remove %d" pid)
      | Engine.Add_arc (u, v) -> Buffer.add_string buf (Printf.sprintf "arc %d %d" u v));
      Buffer.add_char buf '\n')
    ops;
  Buffer.contents buf

let of_string text =
  let err lineno msg = Error (Error.Parse { line = lineno; msg }) in
  let parse_int lineno s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> err lineno (Printf.sprintf "not an integer: %S" s)
  in
  let rec ints lineno acc = function
    | [] -> Ok (List.rev acc)
    | w :: ws -> (
      match parse_int lineno w with
      | Ok v -> ints lineno (v :: acc) ws
      | Error e -> Error e)
  in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
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
      | [] -> go (lineno + 1) acc rest
      | "wlops" :: [ v ] -> (
        match parse_int lineno v with
        | Error e -> Error e
        | Ok v ->
          if v < 1 || v > current_version then Error (Error.Unsupported_version v)
          else go (lineno + 1) acc rest)
      | "path" :: verts -> (
        match ints lineno [] verts with
        | Error e -> Error e
        | Ok vs -> go (lineno + 1) (Engine.Add_path vs :: acc) rest)
      | "remove" :: [ p ] -> (
        match parse_int lineno p with
        | Error e -> Error e
        | Ok pid -> go (lineno + 1) (Engine.Remove_path pid :: acc) rest)
      | "arc" :: u :: [ v ] -> (
        match (parse_int lineno u, parse_int lineno v) with
        | Error e, _ | _, Error e -> Error e
        | Ok u, Ok v -> go (lineno + 1) (Engine.Add_arc (u, v) :: acc) rest)
      | word :: _ -> err lineno (Printf.sprintf "unknown op %S" word))
  in
  go 1 [] (String.split_on_char '\n' text)

let to_jsonx ops =
  let op_json = function
    | Engine.Add_path verts ->
      Jsonx.Obj
        [
          ("op", Jsonx.Str "add_path");
          ("vertices", Jsonx.Arr (List.map (fun v -> Jsonx.Int v) verts));
        ]
    | Engine.Remove_path pid ->
      Jsonx.Obj [ ("op", Jsonx.Str "remove_path"); ("id", Jsonx.Int pid) ]
    | Engine.Add_arc (u, v) ->
      Jsonx.Obj
        [ ("op", Jsonx.Str "add_arc"); ("from", Jsonx.Int u); ("to", Jsonx.Int v) ]
  in
  Jsonx.Obj
    [
      ("format", Jsonx.Str "wl-ops");
      ("version", Jsonx.Int current_version);
      ("ops", Jsonx.Arr (List.map op_json ops));
    ]

let to_json ?pretty ops = Jsonx.to_string ?pretty (to_jsonx ops)

let json_err msg = Error (Error.Parse { line = 0; msg })

let of_jsonx = function
  | Jsonx.Obj _ as json -> (
    (match Jsonx.member "format" json with
    | Some (Jsonx.Str "wl-ops") | None -> Ok ()
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
        match Option.bind (Jsonx.member "ops" json) Jsonx.to_list with
        | None -> json_err "missing \"ops\" array"
        | Some ops ->
          let int_field j name =
            match Option.bind (Jsonx.member name j) Jsonx.to_int with
            | Some v -> Ok v
            | None -> json_err (Printf.sprintf "op needs integer %S" name)
          in
          let parse_op j =
            match Option.bind (Jsonx.member "op" j) Jsonx.to_str with
            | Some "add_path" -> (
              match Option.bind (Jsonx.member "vertices" j) Jsonx.to_list with
              | None -> json_err "add_path needs a \"vertices\" array"
              | Some vs ->
                let rec go acc = function
                  | [] -> Ok (Engine.Add_path (List.rev acc))
                  | x :: rest -> (
                    match Jsonx.to_int x with
                    | Some v -> go (v :: acc) rest
                    | None -> json_err "\"vertices\" must be integers")
                in
                go [] vs)
            | Some "remove_path" ->
              Result.map (fun pid -> Engine.Remove_path pid) (int_field j "id")
            | Some "add_arc" -> (
              match (int_field j "from", int_field j "to") with
              | Ok u, Ok v -> Ok (Engine.Add_arc (u, v))
              | (Error _ as e), _ | _, (Error _ as e) -> e)
            | Some other -> json_err (Printf.sprintf "unknown op %S" other)
            | None -> json_err "op entry needs an \"op\" string"
          in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | j :: rest -> (
              match parse_op j with
              | Ok op -> go (op :: acc) rest
              | Error _ as e -> e)
          in
          go [] ops)))
  | _ -> json_err "expected a JSON object"

let of_json text =
  match Jsonx.parse text with Error msg -> json_err msg | Ok json -> of_jsonx json

let read_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Error.Io msg)
  | text ->
    let rec first_printable i =
      if i >= String.length text then None
      else
        match text.[i] with
        | ' ' | '\t' | '\n' | '\r' -> first_printable (i + 1)
        | c -> Some c
    in
    if first_printable 0 = Some '{' then of_json text else of_string text

let write_file path ops =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ops))
