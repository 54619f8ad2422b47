(** The run manifest: one versioned JSON document per invocation.

    Every CLI subcommand ([--metrics FILE]) and every [--json] bench
    experiment emits one of these; it absorbs the pipeline's scattered
    statistics — spans, the metrics registry, engine/memory/trace sections —
    so a run is fully explainable from one artifact.  The schema is stable
    and versioned ([schema_version]); see [docs/METRICS.md] for the field
    catalogue.

    A manifest is an ordinary {!Json.t} object.  {!make} guarantees the
    required members; producers append their own {e sections} (extra
    top-level members — object- or list-valued, e.g. ["engine"],
    ["memory"], ["trace"], ["replay"]) through [~extra].  {!validate}
    checks the required members and the shape of every known section, and
    accepts unknown sections — the rule that lets the schema grow without
    breaking older readers. *)

val make :
  tool:string ->
  subcommand:string ->
  ?argv:string list ->
  ?extra:(string * Json.t) list ->
  Span.recorder ->
  Metrics.t ->
  Json.t
(** Assemble a manifest document: [schema_version], [tool], [subcommand],
    [argv], [spans] (from the recorder), [metrics] (from the registry),
    then the [extra] sections in order.
    @raise Invalid_argument if an [extra] key collides with a required
    member or repeats. *)

val validate : Json.t -> (unit, string) result
(** Structural schema check: required members present with the right types,
    [schema_version] supported, every span and metric well-formed, known
    sections ([engine], [memory], [trace], [replay], [server], [check])
    shaped as documented.  Unknown extra members are allowed. *)

val write : string -> Json.t -> unit
(** Render to the given path (trailing newline, deterministic member
    order).  @raise Sys_error if the file cannot be written. *)
