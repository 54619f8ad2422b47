(** Minimal CSV writer (RFC-4180 quoting) for exporting profile series so the
    figures can be re-plotted outside the terminal. *)

val to_string : string list list -> string
