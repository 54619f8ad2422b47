(* Only because perfbench/tqbench.ml names Tq_serve.Toolset; goes with the next declared benchmark commit. *)
include Tq_report.Toolset
