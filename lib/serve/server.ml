open Wl_core
module Engine = Wl_engine.Engine

type address = Unix_sock of string | Tcp of string * int

let address_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let address_of_string s =
  let err () =
    Error
      (Error.Parse
         { line = 0; msg = Printf.sprintf "bad address %S: want unix:PATH or tcp:HOST:PORT" s })
  in
  let tcp rest =
    match String.rindex_opt rest ':' with
    | None -> err ()
    | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
      | _ -> err ())
  in
  if s = "" then err ()
  else if String.length s >= 5 && String.sub s 0 5 = "unix:" then
    let path = String.sub s 5 (String.length s - 5) in
    if path = "" then err () else Ok (Unix_sock path)
  else if String.length s >= 4 && String.sub s 0 4 = "tcp:" then
    tcp (String.sub s 4 (String.length s - 4))
  else if s.[0] = '/' || s.[0] = '.' then Ok (Unix_sock s)
  else if String.contains s ':' then tcp s
  else err ()

type t = {
  shard : Shard.t;
  addr : address;
  listen_fd : Unix.file_descr;
  stop_flag : bool Atomic.t;
  conns_m : Mutex.t;
  mutable conns : Unix.file_descr list;  (** open connections, every domain *)
  mutable accept_thread : Thread.t option;
  mutable accept_domains : unit Domain.t list;
}

let payload_is_json p = String.length p > 0 && p.[0] = '{'

(* A client Shutdown must stop the whole server, not just answer R_bye;
   sniff it before dispatch so the reply still goes out first. *)
let conn_loop t fd =
  let rec go () =
    match Wire.read fd with
    | Ok None -> ()
    | Error e ->
      (try ignore (Wire.write fd (Proto.encode_reply (Error e))) with _ -> ())
    | Ok (Some payload) -> (
      let json = payload_is_json payload in
      let decoded = Proto.decode_request_ctx payload in
      (* The trace context decoded off the frame rides into the shard
         (spans, exemplars) and is echoed on the reply. *)
      let reply, ctx =
        match decoded with
        | Error e -> ((Error e : Proto.reply), Wl_obs.Ctx.none)
        | Ok (req, ctx) -> (Shard.call ~ctx t.shard req, ctx)
      in
      match Wire.write fd (Proto.encode_reply ~json ~ctx reply) with
      | Error _ -> ()
      | Ok () -> (
        match decoded with
        | Ok (Proto.Shutdown, _) -> Atomic.set t.stop_flag true
        | _ -> go ()))
  in
  (try go () with _ -> ());
  Mutex.lock t.conns_m;
  t.conns <- List.filter (( <> ) fd) t.conns;
  Mutex.unlock t.conns_m;
  try Unix.close fd with _ -> ()

(* The stop flag is read under [conns_m]: a connection admitted here is
   on [conns] before [wait] shuts them down, or is never admitted. *)
let accept_loop t =
  let rec go () =
    if Atomic.get t.stop_flag then ()
    else
      match Unix.accept t.listen_fd with
      | fd, _ ->
        Mutex.lock t.conns_m;
        let admit = not (Atomic.get t.stop_flag) in
        if admit then t.conns <- fd :: t.conns;
        Mutex.unlock t.conns_m;
        if admit then ignore (Thread.create (conn_loop t) fd)
        else (try Unix.close fd with _ -> ());
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _) ->
        ()
      | exception _ -> if not (Atomic.get t.stop_flag) then go ()
  in
  go ()

(* A thread blocked in [accept] does not notice the listener closing, so
   the drain pokes it awake with a throwaway self-connection. *)
let wake_accept addr =
  try
    let fd =
      match addr with
      | Unix_sock path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      | Tcp (_, port) ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        fd
    in
    Unix.close fd
  with _ -> ()

let listen_on addr =
  try
    match addr with
    | Unix_sock path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128;
      Ok fd
    | Tcp (host, port) ->
      let inet =
        match Unix.inet_addr_of_string host with
        | addr -> addr
        | exception _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } -> raise Not_found
          | { Unix.h_addr_list; _ } -> h_addr_list.(0))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 128;
      Ok fd
  with
  | Unix.Unix_error (e, _, _) ->
    Error (Error.Io (Printf.sprintf "cannot listen on %s: %s" (address_to_string addr)
                       (Unix.error_message e)))
  | Not_found ->
    Error (Error.Io (Printf.sprintf "cannot resolve %s" (address_to_string addr)))

let serve ~shard addr =
  match listen_on addr with
  | Error _ as e -> e
  | Ok listen_fd ->
    let t =
      {
        shard;
        addr;
        listen_fd;
        stop_flag = Atomic.make false;
        conns_m = Mutex.create ();
        conns = [];
        accept_thread = None;
        accept_domains = [];
      }
    in
    (* Waves run on the connection threads, so connections are spread
       over one domain per shard; each loop creates its connection
       threads on its own domain. *)
    t.accept_domains <-
      List.init (Shard.shards shard - 1) (fun _ -> Domain.spawn (fun () -> accept_loop t));
    t.accept_thread <- Some (Thread.create accept_loop t);
    Ok t

let address t = t.addr
let request_stop t = Atomic.set t.stop_flag true
let stop_requested t = Atomic.get t.stop_flag

let wait t =
  while not (Atomic.get t.stop_flag) do
    Thread.delay 0.05
  done;
  (* one wake per accept loop: each wakes at most one [accept] *)
  for _ = 0 to List.length t.accept_domains do
    wake_accept t.addr
  done;
  let sessions = Shard.drain t.shard in
  (* A domain joins only once its connection threads end, so close the
     connections still open; the drain has answered every call in flight. *)
  Mutex.lock t.conns_m;
  List.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ()) t.conns;
  Mutex.unlock t.conns_m;
  (match t.accept_thread with
  | Some th -> ( try Thread.join th with _ -> ())
  | None -> ());
  List.iter Domain.join t.accept_domains;
  (try Unix.close t.listen_fd with _ -> ());
  (match t.addr with
  | Unix_sock path -> ( try Unix.unlink path with _ -> ())
  | Tcp _ -> ());
  sessions
