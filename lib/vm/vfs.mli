(** In-VM virtual filesystem.

    The simulated process does its file I/O (the wfs application reads and
    writes WAV files) against this hermetic store rather than the host
    filesystem, so profiling runs are reproducible and tests need no fixture
    files on disk. *)

type t

val create : unit -> t

val install : t -> string -> string -> unit
(** [install t path contents] creates/replaces a file. *)

val contents : t -> string -> string option

val list : t -> string list
(** Paths in lexicographic order. *)

(** {2 Descriptor-level API used by the syscall layer} *)

type fd

val openf : t -> string -> writable:bool -> (fd, string) result
(** Opening for write truncates/creates; opening for read fails if the file
    does not exist. *)

val max_file_size : int
(** The file-size budget, 64 MiB: no file grows past it, and the syscall
    layer refuses any length or position outside [0 .. max_file_size], so
    no host buffer is ever sized from an unchecked guest value.  The
    largest file the repository's programs write, wfs [large]'s
    [output.wav], is 1,966,124 bytes. *)

val read : fd -> int -> bytes
(** [read fd len] returns the next at most [len] bytes (fewer at the end of
    the file); the buffer is sized by what the file holds, not by [len]. *)

val write : fd -> bytes -> (int, string) result
(** Writes the bytes at the position (0 on a read-only descriptor);
    [Error] when the file would grow past {!max_file_size}. *)

val seek : fd -> int -> (unit, string) result
(** [Error] for a position outside [0 .. max_file_size]. *)

val fd_size : fd -> int

val close : t -> fd -> unit
(** Flushes the descriptor's buffer back into the store. *)
