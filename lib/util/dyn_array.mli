(** Growable arrays.

    A thin, allocation-conscious growable array used throughout the profilers
    for per-slice series and event logs.  Amortised O(1) [push]. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty dynamic array.  [dummy] fills unused
    backing slots; it is never observable through the API. *)

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th element.  @raise Invalid_argument if out of
    bounds. *)

val get_or : 'a t -> int -> 'a -> 'a
(** [get_or t i default] is [get t i] if in bounds, else [default]. *)

val add_at : (int -> int -> int) -> int t -> int -> int -> unit
(** [add_at f t i x] sets slot [i] to [f old x], extending with dummies as
    needed (absent slots read as the dummy). *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_array : 'a t -> 'a array
