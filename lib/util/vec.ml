type 'a t = { mutable data : 'a array; mutable len : int }

let create ?(capacity = 8) () =
  ignore capacity;
  { data = [||]; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let grow t x =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 8 else 2 * cap in
  let data = Array.make new_cap x in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let last t =
  if t.len = 0 then invalid_arg "Vec.last: empty";
  t.data.(t.len - 1)

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

let to_array t = Array.sub t.data 0 t.len

let to_list t = Array.to_list (to_array t)

let of_array data = { data; len = Array.length data }

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let clear t = t.len <- 0
