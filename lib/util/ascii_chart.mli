(** ASCII renderers for the paper's running-time graphs (Figs. 6 and 7).

    The paper plots, for each kernel, the memory-access intensity per time
    slice as a 3-D ridge chart.  The terminal equivalent rendered here is a
    per-kernel intensity strip: one row per kernel, one column per (bucketed)
    time slice, with a density glyph encoding the bandwidth magnitude. *)

val strip_chart :
  ?width:int ->
  title:string ->
  unit_label:string ->
  (string * float array) list ->
  string
(** [strip_chart ~title ~unit_label series] renders one intensity strip per
    [(kernel, per-slice values)] pair.  All series must have equal length;
    slices are averaged down to at most [width] columns (default 96).  Glyph
    intensity encodes [log1p] of the value, matching how the paper's figures
    remain readable across the >50x dynamic range of bandwidths.  Each row
    is annotated with the series' peak value.

    @raise Invalid_argument if series lengths differ or the list is empty. *)
