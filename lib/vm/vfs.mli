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

val read : fd -> bytes -> int -> int
(** [read fd buf len] reads at most [len] bytes into the front of [buf],
    returning the count (0 at EOF). *)

val write : fd -> bytes -> int -> int

val seek : fd -> int -> unit

val fd_size : fd -> int

val close : t -> fd -> unit
(** Flushes the descriptor's buffer back into the store. *)
