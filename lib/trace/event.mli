(** The event vocabulary of the record-once / replay-many trace subsystem.

    One execution under the {!Probe} produces a stream of these events; every
    analysis tool in the repository (tQUAD, QUAD, gprof-sim, the cache/mix/
    footprint tools) can be driven from the stream — live, as the probe
    synthesizes it, or later from a recorded {!Reader} — with bit-identical
    results, because the events carry exactly the dynamic values the tools'
    analysis routines used to read from the machine:

    - [icount]: the retired-instruction count {e before} the instruction
      executes (the clock every profiler slices time with);
    - [sp]: the stack pointer at analysis time (stack-area classification and
      internal call-stack matching);
    - effective addresses and dynamic byte counts (block copies report the
      run-time [len], predicated accesses are only emitted when their guard
      was true).

    [Block_exec] events record basic-block dispatch (address + instruction
    count); together with the program image they reconstruct the full
    instruction stream for sampling and instruction-mix analyses without
    paying one event per instruction. *)

type t =
  | Rtn_entry of { icount : int; routine : int; sp : int }
      (** control reached a routine's entry instruction ([routine] is the
          {!Tq_vm.Symtab} id) *)
  | Ret of { icount : int; sp : int }
      (** a return instruction, after its own stack read was emitted *)
  | Load of { icount : int; static : int; ea : int; size : int; sp : int }
      (** [static] is the id of the routine containing the instruction, or
          [-1] outside any routine *)
  | Store of { icount : int; static : int; ea : int; size : int; sp : int }
  | Block_copy of {
      icount : int;
      static : int;
      src : int;
      dst : int;
      len : int;  (** dynamic byte count; may be 0 *)
      sp : int;
    }
  | Prefetch of { icount : int; ea : int; size : int }
      (** analysis tools must discard these (the cache model warms on them) *)
  | Block_exec of { icount : int; addr : int; n : int }
      (** a basic block of [n] instructions dispatched at [addr]; all [n]
          retire *)
  | End of { icount : int }  (** final instruction count at halt *)

(** Event kinds, for declaring which events a replay sink consumes (see
    {!Replay.job}) without constructing events. *)
type kind =
  | KRtn_entry
  | KRet
  | KLoad
  | KStore
  | KBlock_copy
  | KPrefetch
  | KBlock_exec
  | KEnd

val all_kinds : kind list

val n_kinds : int

val kind_tag : kind -> int
(** Wire tag of a kind, [0 .. n_kinds - 1]. *)

val tag : t -> int
(** Wire tag of an event; [tag ev = kind_tag (kind of ev)]. *)

val icount : t -> int

val pp : Format.formatter -> t -> unit

(** {2 Numeric fields (v4 repeat chunks)}

    A v4 repeat chunk stores one loop-body iteration plus, per event, the
    evolution of its {e numeric} fields — the values that change between
    iterations.  The canonical per-kind field order is part of the wire
    format (docs/TRACE.md):

    - [Rtn_entry]: icount, sp
    - [Ret]: icount, sp
    - [Load]/[Store]: icount, ea, sp
    - [Block_copy]: icount, src, dst, len, sp
    - [Prefetch]: icount, ea
    - [Block_exec]/[End]: icount

    Everything else ([static], [routine], [size], [addr], [n] and the
    constructor itself) is {e structural}: identical across iterations by
    construction, stored once in the body. *)

val num_fields : t -> int
(** Number of numeric fields of this event's kind. *)

val read_num_fields : t -> int array -> int -> int
(** [read_num_fields ev out off] writes [ev]'s numeric fields into
    [out.(off ..)] in canonical order and returns the next free offset. *)

val with_num_fields : t -> int array -> int -> t
(** [with_num_fields tmpl vals off] rebuilds an event: structure from
    [tmpl], numeric fields from [vals.(off ..)].  Inverse of
    {!read_num_fields}. *)

val struct_same : t -> t -> bool
(** Do the two events agree on constructor and every structural field?  The
    matching predicate of the record-time repetition detector. *)

(** {2 Codec}

    Events are delta-encoded against a running {!state} (instruction counts,
    addresses, stack pointer), each field as ULEB128/SLEB128 — the
    {!Tq_util.Leb128} conventions of {!Tq_vm.Objfile}.  The leading tag byte
    packs the icount delta into its high 5 bits (consecutive events are a
    few instructions apart), falling back to a ULEB delta when it doesn't
    fit.  The state is reset at every chunk boundary so chunks decode
    independently. *)

type state

val fresh_state : ?icount:int -> unit -> state

val copy_state : state -> state
(** An independent copy: encoding against it leaves the original as is. *)

val min_encoded_bytes : t -> int
(** The fewest bytes {!encode} can spend on the event, whatever the state:
    its tag byte and one byte per further field. *)

val encode : state -> Buffer.t -> t -> unit
(** @raise Invalid_argument if [icount] regresses w.r.t. the state.  The
    decoder is {!Cols.decode}, which writes a chunk's events into
    columns. *)
