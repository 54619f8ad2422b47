(** A plain chunk's events as columns: the replay pipeline's decoded form.

    A plain chunk (every chunk of a v3 trace, the unsquashed stretches of a
    v4 one) decodes into a struct of arrays instead of one boxed
    {!Event.t} per event: a kind byte column plus six int columns, each
    event's fields stored at its index.  Which column holds which field
    depends on the event's kind:

    {v
      kind        icount  static     ea     size   sp   dst
      Rtn_entry   icount  routine    -      -      sp   -
      Ret         icount  -          -      -      sp   -
      Load/Store  icount  static     ea     size   sp   -
      Block_copy  icount  static     src    len    sp   dst
      Prefetch    icount  -          ea     size   -    -
      Block_exec  icount  -          addr   n      -    -
      End         icount  -          -      -      -    -
    v}

    A cell marked [-] holds no field of its event (whatever an earlier
    decode left there).  The kind byte is the event's wire tag,
    {!Event.tag}.

    This module holds the one decoder of plain payloads ({!decode}): the
    pipeline's consumers read its columns directly ({!Tool.S}[.consume_plain]),
    and every boxed event a reader yields is built from them by {!get}.
    A buffer can be refilled chunk after chunk: its columns only grow, so
    decoding into a buffer that already holds the chunk's event count
    allocates nothing. *)

type t = private {
  mutable n : int;  (** events held, [<= ] the columns' length *)
  mutable calls : int;
      (** how many of them are [Rtn_entry] or [Ret]: a consumer that only
          follows the call stack skips a chunk without one *)
  mutable kind : Bytes.t;
  mutable icount : int array;
  mutable static : int array;
  mutable ea : int array;
  mutable size : int array;
  mutable sp : int array;
  mutable dst : int array;
}

val create : int -> t
(** [create cap] is an empty buffer whose columns hold [cap] events. *)

val length : t -> int
(** Events held. *)

val tag : t -> int -> int
(** [tag c i] is event [i]'s wire tag ([0 ..] {!Event.n_kinds}[ - 1]),
    for [0 <= i < length c]. *)

val get : t -> int -> Event.t
(** [get c i] boxes event [i].
    @raise Invalid_argument unless [0 <= i < length c]. *)

val iter : t -> (Event.t -> unit) -> unit
(** [iter c f] passes every event, boxed, to [f] in order. *)

val decode : t -> string -> pos:int -> stop:int -> icount:int -> int -> int
(** [decode c s ~pos ~stop ~icount n] decodes the [n] events encoded at
    [s.[pos ..]] against a fresh delta state starting at [icount]
    ({!Event.encode}), replacing [c]'s contents, and returns the position
    after the last event.  It stops after the first event ending past
    [stop], so a result above [stop] means that event overran it.
    @raise Tq_util.Leb128.Truncated when an event runs off the end of [s]. *)
