(** Growable arrays (amortized O(1) push), used by the graph structures.

    A thin, allocation-friendly alternative to [Buffer] for arbitrary
    element types.  Indices are checked. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val last : 'a t -> 'a
(** Raises [Invalid_argument] when empty. *)

val pop : 'a t -> 'a
(** Removes and returns the last element. Raises [Invalid_argument] when
    empty. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
val of_array : 'a array -> 'a t
(** A vector holding exactly the array's elements.  The vector takes the
    array over as its storage: the caller must not use it afterwards. *)

val of_list : 'a list -> 'a t
val exists : ('a -> bool) -> 'a t -> bool
val clear : 'a t -> unit
