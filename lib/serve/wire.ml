open Wl_core

let max_frame = 16 * 1024 * 1024

let proto_error msg = Error.Parse { line = 0; msg }

let frame payload =
  let len = String.length payload in
  if len = 0 then invalid_arg "Wire.frame: empty payload";
  if len > max_frame then invalid_arg "Wire.frame: payload exceeds max_frame";
  let b = Bytes.create (4 + len) in
  Bytes.set_uint8 b 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (len land 0xff);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.unsafe_to_string b

(* Decode the 4-byte prefix without touching anything past it; every
   reader checks the length here before the payload buffer exists, so a
   garbage length can cost at most a refused frame, never an allocation. *)
let length_at b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let check_length len =
  if len = 0 then Error (proto_error "zero-length frame")
  else if len > max_frame then
    Error (proto_error (Printf.sprintf "oversized frame: %d bytes (max %d)" len max_frame))
  else Ok len

let truncated_prefix = proto_error "truncated frame: length prefix incomplete"

let truncated_payload len present =
  proto_error (Printf.sprintf "truncated frame: %d payload bytes promised, %d present" len present)

let unframe buf off =
  let n = String.length buf in
  if off < 0 || off > n then Error (proto_error "frame offset out of range")
  else if n - off < 4 then Error truncated_prefix
  else
    match check_length (length_at (Bytes.unsafe_of_string buf) off) with
    | Error _ as e -> e
    | Ok len when n - off - 4 < len -> Error (truncated_payload len (n - off - 4))
    | Ok len -> Ok (String.sub buf (off + 4) len, off + 4 + len)

let unframe_all buf =
  let n = String.length buf in
  let rec go acc off =
    if off = n then Ok (List.rev acc)
    else
      match unframe buf off with
      | Ok (payload, off') -> go (payload :: acc) off'
      | Error _ as e -> e
  in
  go [] 0

(* --- blocking fd transport ------------------------------------------------ *)

let rec write_all fd b off len =
  if len = 0 then Ok ()
  else
    match Unix.write fd b off len with
    | 0 -> Error (Error.Io "connection closed during write")
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len
    | exception Unix.Unix_error (e, _, _) -> Error (Error.Io (Unix.error_message e))

let write fd payload =
  let framed = frame payload in
  write_all fd (Bytes.unsafe_of_string framed) 0 (String.length framed)

(* Read into [b] from byte [off] until it is full or EOF arrives; the
   number of bytes it then holds. *)
let rec read_upto fd b off =
  let len = Bytes.length b in
  if off = len then Ok off
  else
    match Unix.read fd b off (len - off) with
    | 0 -> Ok off
    | n -> read_upto fd b (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_upto fd b off
    | exception Unix.Unix_error (e, _, _) -> Error (Error.Io (Unix.error_message e))

(* Finish a payload whose first [have] bytes are already in place. *)
let read_payload fd payload have =
  match read_upto fd payload have with
  | Error _ as e -> e
  | Ok n when n < Bytes.length payload -> Error (truncated_payload (Bytes.length payload) n)
  | Ok _ -> Ok (Some (Bytes.unsafe_to_string payload))

let read fd =
  let prefix = Bytes.create 4 in
  match read_upto fd prefix 0 with
  | Error _ as e -> e
  | Ok 0 -> Ok None
  | Ok n when n < 4 -> Error truncated_prefix
  | Ok _ -> (
    match check_length (length_at prefix 0) with
    | Error _ as e -> e
    | Ok len -> read_payload fd (Bytes.create len) 0)

(* --- buffered reader ------------------------------------------------------- *)

(* OCaml's [Unix.read] moves at most 64 KiB per call, so a larger buffer
   would buy no fewer syscalls. *)
let buffer_size = 65536

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (** first byte not yet handed out *)
  mutable lim : int;  (** end of the bytes read so far *)
}

let reader fd = { fd; buf = Bytes.create buffer_size; pos = 0; lim = 0 }

(* Move the unread bytes to the front, then one read into the free tail;
   [Ok 0] on EOF.  Callers hold fewer unread bytes than a frame that fits
   the buffer, so the tail is never empty. *)
let rec fill r =
  if r.pos > 0 then begin
    Bytes.blit r.buf r.pos r.buf 0 (r.lim - r.pos);
    r.lim <- r.lim - r.pos;
    r.pos <- 0
  end;
  match Unix.read r.fd r.buf r.lim (buffer_size - r.lim) with
  | n ->
    r.lim <- r.lim + n;
    Ok n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill r
  | exception Unix.Unix_error (e, _, _) -> Error (Error.Io (Unix.error_message e))

let rec read_frame r =
  let avail = r.lim - r.pos in
  if avail < 4 then
    match fill r with
    | Error _ as e -> e
    | Ok 0 -> if avail = 0 then Ok None else Error truncated_prefix
    | Ok _ -> read_frame r
  else
    match check_length (length_at r.buf r.pos) with
    | Error _ as e -> e
    | Ok len when avail - 4 >= len ->
      let payload = Bytes.sub_string r.buf (r.pos + 4) len in
      r.pos <- r.pos + 4 + len;
      Ok (Some payload)
    | Ok len when 4 + len <= buffer_size -> (
      match fill r with
      | Error _ as e -> e
      | Ok 0 -> Error (truncated_payload len (avail - 4))
      | Ok _ -> read_frame r)
    | Ok len ->
      (* Too big for the buffer: hand what it holds to the payload and
         read the rest straight in, so the buffer never grows. *)
      let payload = Bytes.create len in
      Bytes.blit r.buf (r.pos + 4) payload 0 (avail - 4);
      r.pos <- 0;
      r.lim <- 0;
      read_payload r.fd payload (avail - 4)
