(* The real `wl wld` as a child process on a unix socket inside the run
   directory.  Socket paths are relative so they stay under the length
   limit wherever the checkout lives; the daemon inherits the cwd. *)

module Client = Wl_serve.Client

type t = { pid : int; addr : string; mutable status : Unix.process_status option }

let live : t list ref = ref []

(* Reaps the daemon once and remembers how it ended. *)
let exited d =
  match d.status with
  | Some _ as st -> st
  | None -> (
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> None
    | _, st ->
      d.status <- Some st;
      Some st
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      d.status <- Some (Unix.WEXITED 255);
      d.status)

let kill_quietly pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

(* Any daemon still alive when the benchmark exits is killed and reaped. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          if exited d = None then begin
            kill_quietly d.pid;
            try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()
          end)
        !live)

let forget d = live := List.filter (fun x -> x.pid <> d.pid) !live

(* Starts `wl wld` and returns once a client's [hello] succeeds.  The time
   from fork to that reply is part of the workload's set-up. *)
let start ~wl ~dir ~shards =
  let sock = Filename.concat dir "wld.sock" in
  let log = Unix.openfile (Filename.concat dir "wld.log") [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let addr = "unix:" ^ sock in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process wl [| wl; "wld"; "--shards"; string_of_int shards; addr |] null log log
  in
  Unix.close log;
  Unix.close null;
  let d = { pid; addr; status = None } in
  live := d :: !live;
  let deadline = t0 +. 30. in
  let rec wait () =
    match exited d with
    | Some _ ->
      forget d;
      Error "wld exited during start-up"
    | None -> (
      let ready =
        if not (Sys.file_exists sock) then false
        else
          match Client.connect addr with
          | Error _ -> false
          | Ok c ->
            let ok = Client.hello c = Ok Wl_serve.Proto.version in
            Client.close c;
            ok
      in
      if ready then Ok d
      else if Unix.gettimeofday () > deadline then Error "wld did not answer hello within 30 s"
      else (
        Thread.delay 0.0005;
        wait ()))
  in
  wait ()

(* Peak resident set of a process, from the kernel's high-water mark. *)
let vm_hwm_mib pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> None
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            Some (float_of_int kb /. 1024.))
      else scan ()
  in
  let r = scan () in
  close_in ic;
  r

let peak_rss_mib d = vm_hwm_mib (string_of_int d.pid)

let kill d =
  if exited d = None then begin
    kill_quietly d.pid;
    match Unix.waitpid [] d.pid with
    | _, st -> d.status <- Some st
    | exception Unix.Unix_error _ -> ()
  end;
  forget d

(* SIGTERM must drain: the daemon exits 0 within the deadline.  A daemon
   that hangs is killed and reported. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match exited d with
    | Some st -> (
      forget d;
      match st with
      | Unix.WEXITED 0 -> Ok ()
      | Unix.WEXITED n -> Error (Printf.sprintf "wld drain exited %d" n)
      | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "wld drain died on signal %d" n))
    | None ->
      if Unix.gettimeofday () > deadline then (
        kill d;
        Error "wld did not drain within 30 s of SIGTERM")
      else (
        Thread.delay 0.002;
        wait ())
  in
  wait ()

let alive d = exited d = None
