(** Per-kernel memory footprint (buffer-sizing tool).

    The paper's hardware-mapping discussion hinges on buffer sizes: a kernel
    is a good FPGA candidate "provided that enough space is available for
    the size of needed memory block" (its UnMA footprint), and it contrasts
    kernels with KB-sized buffers against wav_store's 65-million-location
    fetch set.  This tool reports exactly that: for every kernel, the unique
    bytes it touched in each address-space region (static data, heap,
    stack), the page count, and the bounding extent — the numbers a buffer-
    placement decision needs. *)

type region = Data | Heap | Stack

val region_name : region -> string
(** Display name of a region: ["data"], ["heap"] or ["stack"]. *)

type t

include
  Tq_trace.Tool.S
    with type t := t
     and type config = Call_stack.policy
     and type seed = Call_stack.t
(** [shard] is [Some]: a stack-only ordered prefix ({!Call_stack.prefix}),
    stack-seeded shards, and a merge that unions the per-kernel
    touched-address sets. *)

val attach : ?policy:Call_stack.policy -> Tq_dbi.Engine.t -> t
(** Register the tool: [create] + {!Tq_trace.Probe.attach}; [policy]
    defaults to [Main_image_only]. *)

type region_stats = {
  unique_bytes : int;  (** distinct addresses touched *)
  pages : int;  (** distinct 4 KiB pages *)
  lo : int;  (** lowest touched address (0 if none) *)
  hi : int;  (** highest touched address *)
}

val rows : t -> (Tq_vm.Symtab.routine * (region * region_stats) list) list
(** Kernels with any traffic, ordered by total unique bytes (descending);
    only non-empty regions are listed. *)

val render : t -> string
(** The {!rows} table with per-region unique bytes/pages/extents, as
    printed by [tquad footprint]. *)
