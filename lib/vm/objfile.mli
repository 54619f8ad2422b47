(** On-disk binary format for linked programs ("the binary machine code").

    A DBA tool needs nothing but the binary (paper §IV); this module makes
    that literal: a linked {!Program.t} serializes to a compact object file
    — magic/version header, symbol table, initialized data segments and a
    variable-length instruction encoding (one opcode byte, register bytes,
    SLEB128 immediates, IEEE-754 bit patterns for float literals).  The CLI
    can [build] a MiniC source into a [.bin] and every profiler can consume
    the [.bin] directly.

    The format is deterministic: [encode] of equal programs yields equal
    bytes, and [decode (encode p)] reconstructs a program with identical
    code, symbols, data and entry point. *)

val magic : string
(** "TQBIN1\n" *)

exception Format_error of string

val encode : Program.t -> string

val decode : string -> Program.t
(** @raise Format_error on a malformed or truncated image. *)

val is_objfile : string -> bool
(** Does the byte string start with the magic? *)

(** {2 Varint encoding (exposed for tests)} *)
