(** Growable arrays.

    A thin, allocation-conscious growable array: the squasher's literal
    delta tables and the assembler's code buffers.  Amortised O(1)
    [push]. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty dynamic array.  [dummy] fills unused
    backing slots; it is never observable through the API. *)

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th element.  @raise Invalid_argument if out of
    bounds. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_array : 'a t -> 'a array
