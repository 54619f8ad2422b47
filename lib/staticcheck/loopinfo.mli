(** Induction variables and symbolic trip counts for the natural loops of
    {!Cfg} (one record per {!Cfg.loop}, same index), built on {!Dataflow}.

    An {e induction variable} is a stack/data cell written exactly once in
    the loop body, unconditionally on every iteration, with [cell + step];
    the {e trip count} is recovered from the single exit test when the
    guard is a comparison between one induction variable and a value that
    is constant ([Tconst]) or loop-invariant-in-one-cell ([Taffine] — the
    "affine in a routine parameter" case).  Every failure mode reports why
    ([Tunknown]). *)

type trip =
  | Tconst of int
  | Taffine of { cell : Dataflow.cell; num : int; den : int; off : int }
      (** trips = [max 0 (floor ((num * content(cell) + off) / den))],
          evaluated at loop entry *)
  | Tunknown of string

val trip_to_string : trip -> string

type store_rec = {
  s_index : int;
  s_block : int;
  s_cell : Dataflow.cell;
  s_pred : bool;
  s_value : Dataflow.value;
  s_is_int_w8 : bool;
}

type loop = {
  l_nest : Cfg.loop;  (** header, body, latches, parent, depth *)
  l_exits : int list;  (** body blocks with a successor outside, ascending *)
  l_has_call : bool;
  l_has_syscall : bool;
  l_wild_stack : bool;
  l_wild_data : bool;
  l_stores : store_rec list;
  l_ivs : (Dataflow.cell * int) list;
  l_trip : trip;
}

type t

val analyze : Dataflow.t -> t
val loops : t -> loop array
(** Indexed like [(Dataflow.cfg df).loops]. *)

val invariant_cell : t -> loop -> Dataflow.cell -> bool
(** No instruction in the loop body can change the cell's content. *)

val iv_step : t -> loop -> Dataflow.cell -> int option

val header_addr : t -> loop -> int option
