(** Physical-plan execution.

    One morsel-driven engine. It fuses filters and join probes into
    streams of chunk-sized morsels — a morsel over a spilled table is
    exactly one pinned buffer-pool frame — and buffers rows only at
    pipeline breakers (hash builds, partition barriers, NL inners; see
    {!Qs_plan.Physical.breaker_children}). A plan's result is the one
    table re-optimization materializes per step (§2.2). Every run
    reports per-node actual cardinalities, so the re-optimization
    strategies can compare them with the optimizer's estimates, and a
    traced run ({!run} [?trace]) reports per-node time, bytes and input
    volumes from the same engine.

    Execution checks an optional deadline and cancellation token and
    raises {!Timeout} / [Cancel.Cancelled]; the paper's 1000-second
    per-query timeout is modelled this way. The engine polls at every
    morsel boundary (so a cancellation unwinds before the next frame is
    pinned) and additionally every {i batch} rows inside wide fan-outs,
    where one morsel can produce many output rows. *)

module Physical = Qs_plan.Physical
module Table = Qs_storage.Table
module Fragment = Qs_stats.Fragment
module Expr = Qs_query.Expr

exception Timeout

val default_row_limit : int
(** Per-operator output cap for plan execution (default 2 M rows): a plan
    materializing more than this is hopeless in this in-memory engine and
    is treated like a timeout — the analogue of the paper's 1000-second
    query cap, which the PostgreSQL "Default" configuration also hits on
    several JOB queries. *)

type stats = (int, int) Hashtbl.t
(** Physical node id → actual output rows. *)

val intermediate_tables : unit -> int
(** Cumulative count of intermediate tables the engine materialized:
    one per join plan (its sink) and one per filtered bare-scan result
    it computes (cache hits build none). For experiment accounting —
    reset with {!reset_counters} around a measured region. *)

val partition_reuses : unit -> int
(** How many times a partitioned join consumed a side through its
    preserved partition layout (a temp carrying its {!Qs_storage.Table.
    partitioning}) instead of re-hashing every row. *)

val vectorized_chunks : unit -> int
(** Always 0. It counted chunks filtered by the columnar layout's
    vectorized kernels; row chunks are the only layout now, and every
    filter runs row-at-a-time. It stays because the repo benchmark
    reports it as the per-layer metric [exec.vectorized_chunks]. *)

val reset_counters : unit -> unit

val span_label : Physical.t -> string
(** The name of the [operator] span bridged for a plan node ([scan:<id>],
    [hash-join], [index-nl-join], [nl-join]). One arm per [Physical]
    operator constructor — tools/check.sh lints for completeness. *)

val run : ?deadline:float -> ?cancel:Qs_util.Cancel.t -> ?row_limit:int ->
  ?pool:Qs_util.Pool.t -> ?trace:Qs_obs.Trace.t -> ?spans:Qs_util.Span.t ->
  Physical.t -> Table.t * stats
(** Evaluate the plan. The output schema is the concatenation of the
    leaf schemas (alias-qualified); apply {!project} for the query's
    final projection.

    A join plan runs pipelined. A result whose root was a partitioned
    parallel join carries its partition layout
    ({!Qs_storage.Table.partitioning}), which {!project} and temp
    materialization preserve — the next step's join over the same key
    and modulus skips re-partitioning. A bare scan returns
    {!filter_input} itself, so it is served from the input's filter
    cache.

    Every node id of the plan — including the inner scan of an index
    nested-loop join, which is consumed through the index rather than
    scanned — is present in the returned stats. With [trace], each node
    additionally records its estimate, wall-clock (inclusive of
    children — see {!Qs_obs.Trace.self_time}), output bytes and input
    volumes (rows scanned; build/probe or outer rows, i.e. the
    children's actual rows). Time is charged per morsel: the clock is
    read once at each morsel hand-off between operators and the delta
    goes to the operator that was running. The inner scan of an index
    nested-loop join has no time or bytes of its own; they are its
    join's. Without [trace] no clock is read and no bytes are walked.
    With [spans], each node is additionally bridged into one [operator]
    span (est/actual rows in the args). A join plan emits these as
    zero-duration markers and reports wall-clock through [pipeline] and
    [breaker] spans; a bare scan's span carries its duration.

    With [pool] (of size > 1), hash joins run partitioned across the
    pool's domains and bare scans filter their table chunks in
    parallel; plans, costs and the result multiset are unchanged — only
    wall-clock is affected. Off by default. *)

val project : ?name:string -> Table.t -> Expr.colref list -> Table.t
(** Keep only the named columns (in the given order, duplicates removed);
    an empty list keeps everything. *)

val filter_table : ?deadline:float -> ?cancel:Qs_util.Cancel.t ->
  ?pool:Qs_util.Pool.t -> Table.t -> Expr.pred list -> Table.t
(** Chunked scan+filter of one table. With [pool] (size > 1) chunks are
    scanned in parallel; per-chunk outputs are merged in chunk order, so
    the result is row-for-row identical to the sequential scan. *)

val filter_input : ?deadline:float -> ?cancel:Qs_util.Cancel.t ->
  ?pool:Qs_util.Pool.t -> Fragment.input -> Table.t
(** Scan one input applying its filters (a bare-scan plan's result,
    exposed for tests). The result is cached on the
    input's scratch, keyed by the filter predicates. *)

val cartesian : name:string -> Table.t list -> Table.t
(** Cross product of independent result tables — the final merge step of
    QuerySplit when isolated subquery results remain (§3.1). *)
