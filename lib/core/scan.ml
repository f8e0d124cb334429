type t = {
  text : string;
  mutable next : int; (* start of the next line; > length once all are visited *)
  mutable line : int;
  mutable starts : int array; (* the current line's tokens: [starts.(i), ends.(i)) *)
  mutable ends : int array;
  mutable first : int; (* the tokens left once trimmed: [first, ntok) *)
  mutable ntok : int;
  mutable cur : int; (* the current token's index *)
}

let create text =
  { text; next = 0; line = 0; starts = Array.make 16 0; ends = Array.make 16 0; first = 0; ntok = 0; cur = -1 }

let add_token t s e =
  if t.ntok = Array.length t.starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    t.starts <- grow t.starts;
    t.ends <- grow t.ends
  end;
  Array.unsafe_set t.starts t.ntok s;
  Array.unsafe_set t.ends t.ntok e;
  t.ntok <- t.ntok + 1

let rec eol text len i =
  if i >= len || String.unsafe_get text i = '\n' then i else eol text len (i + 1)

(* [String.trim]'s whitespace, bar '\n', which never occurs inside a line. *)
let is_trimmed = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false

(* [String.trim] strips its whitespace from both ends of the content
   before the split on spaces: cut what it strips off the tokens at either
   end, dropping each token it strips whole.  Spaces between tokens are
   whitespace too, so the stripping runs on into the next token. *)
let trim t =
  let text = t.text in
  let first = ref 0 in
  while
    !first < t.ntok && is_trimmed (String.unsafe_get text t.starts.(!first))
  do
    let s = t.starts.(!first) + 1 in
    if s = t.ends.(!first) then incr first else t.starts.(!first) <- s
  done;
  let last = ref (t.ntok - 1) in
  while !last >= !first && is_trimmed (String.unsafe_get text (t.ends.(!last) - 1)) do
    let e = t.ends.(!last) - 1 in
    if e = t.starts.(!last) then decr last else t.ends.(!last) <- e
  done;
  t.first <- !first;
  t.ntok <- !last + 1;
  t.cur <- !first - 1

(* One walk over the line, up to its end or its first '#', records the
   runs of characters other than ' '. *)
let next_line t =
  let text = t.text in
  let len = String.length text in
  if t.next > len then false
  else begin
    t.line <- t.line + 1;
    t.ntok <- 0;
    let i = ref t.next and tok = ref (-1) (* start of the open run *) in
    while
      !i < len
      &&
      match String.unsafe_get text !i with
      | '\n' | '#' -> false
      | ' ' ->
        if !tok >= 0 then begin
          add_token t !tok !i;
          tok := -1
        end;
        true
      | _ ->
        if !tok < 0 then tok := !i;
        true
    do
      incr i
    done;
    if !tok >= 0 then add_token t !tok !i;
    t.next <- 1 + if !i < len && String.unsafe_get text !i = '#' then eol text len !i else !i;
    trim t;
    true
  end

let line t = t.line
let tokens t = t.ntok - t.first

let next_token t =
  if t.cur + 1 >= t.ntok then false
  else begin
    t.cur <- t.cur + 1;
    true
  end

let rec same text i s j =
  j < 0 || (String.unsafe_get text (i + j) = String.unsafe_get s j && same text i s (j - 1))

let is t s =
  let ts = t.starts.(t.cur) and n = String.length s in
  t.ends.(t.cur) - ts = n && same t.text ts s (n - 1)

let token t = String.sub t.text t.starts.(t.cur) (t.ends.(t.cur) - t.starts.(t.cur))

exception Not_int

(* A run of decimal digits, or -1 on any other character.  18 digits
   cannot overflow. *)
let rec decimal text i stop acc =
  if i >= stop then acc
  else
    match String.unsafe_get text i with
    | '0' .. '9' as c -> decimal text (i + 1) stop ((acc * 10) + Char.code c - 48)
    | _ -> -1

let int t =
  let ts = t.starts.(t.cur) and te = t.ends.(t.cur) in
  let d = if te - ts <= 18 then decimal t.text ts te 0 else -1 in
  if d >= 0 then d
  else match int_of_string_opt (token t) with Some v -> v | None -> raise Not_int
