(** Physical-plan execution.

    Two engines share one entry point. The default morsel-driven
    {!Pipeline} engine fuses filters and join probes into streams of
    chunk-sized morsels — a morsel over a spilled table is exactly one
    pinned buffer-pool frame — and buffers rows only at pipeline
    breakers (hash builds, partition barriers, NL inners; see
    {!Qs_plan.Physical.breaker_children}). The {!Materialize} engine is
    the original fully-materialized model re-optimization converts
    execution into (§2.2); it remains the reference implementation and
    the only engine that can fill a per-operator trace. Both report
    per-node actual cardinalities so the re-optimization strategies can
    compare them with the optimizer's estimates, and both produce the
    same result multiset.

    Execution checks an optional deadline and cancellation token and
    raises {!Timeout} / [Cancel.Cancelled]; the paper's 1000-second
    per-query timeout is modelled this way. The pipelined engine polls
    at every morsel boundary (so a cancellation unwinds before the next
    frame is pinned) and additionally every {i batch} rows inside
    wide fan-outs, where one morsel can produce many output rows. *)

module Physical = Qs_plan.Physical
module Table = Qs_storage.Table
module Fragment = Qs_stats.Fragment
module Expr = Qs_query.Expr

exception Timeout

val default_row_limit : int
(** Per-operator output cap for plan execution (default 5 M rows): a plan
    materializing more than this is hopeless in this in-memory engine and
    is treated like a timeout — the analogue of the paper's 1000-second
    query cap, which the PostgreSQL "Default" configuration also hits on
    several JOB queries. *)

type stats = (int, int) Hashtbl.t
(** Physical node id → actual output rows. *)

type mode = Materialize | Pipeline
(** Execution model: whole-operator materialization vs. morsel-driven
    pipelining. Identical result multisets; the pipelined engine builds
    far fewer intermediate tables ({!intermediate_tables}). *)

val set_default_mode : mode -> unit
(** Set the engine used when {!run} gets no explicit [?mode]. The
    process-wide default is {!Pipeline}. *)

val execution_mode : unit -> mode
(** The current default engine. *)

val intermediate_tables : unit -> int
(** Cumulative count of intermediate tables the engines materialized
    (operator outputs; pipelined runs count only their sink and
    breaker materializations). For experiment accounting — reset with
    {!reset_counters} around a measured region. *)

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
  ?mode:mode -> Physical.t -> Table.t * stats
(** Evaluate the plan. The output schema is the concatenation of the
    leaf schemas (alias-qualified); apply {!project} for the query's
    final projection.

    [mode] (default: {!execution_mode}) picks the engine. Join plans run
    pipelined under {!Pipeline}; a bare scan, or any run with [trace],
    always uses the materializing engine (tracing needs materialized
    outputs for byte accounting, and a lone scan only loses the scratch
    filter cache by streaming into a copy). A pipelined result whose
    root was a partitioned parallel join carries its partition layout
    ({!Qs_storage.Table.partitioning}), which {!project} and temp
    materialization preserve — the next step's join over the same key
    and modulus skips re-partitioning.

    Every node id of the plan — including the inner scan of an index
    nested-loop join, which is consumed through the index rather than
    scanned — is present in the returned stats. With [trace], each node
    additionally records estimates, wall-clock (inclusive of children —
    see {!Qs_obs.Trace.self_time}), output bytes and operator volume
    counters; without it the timing/byte probes are skipped entirely.
    With [spans], each node is additionally bridged into one [operator]
    span (est/actual rows in the args); pipelined runs emit these as
    zero-duration markers and report wall-clock through [pipeline] and
    [breaker] spans instead, since fused operators have no exclusive
    time of their own.

    With [pool] (of size > 1), hash joins run partitioned across the
    pool's domains and leaf scans filter their table chunks in parallel;
    plans, costs and the result multiset are unchanged — only wall-clock
    is affected. Off by default. *)

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
(** Scan one input applying its filters (the executor's leaf operator,
    exposed for the naive counter and tests). The result is cached on the
    input's scratch, keyed by the filter predicates. *)

val hash_join : ?deadline:float -> ?cancel:Qs_util.Cancel.t -> ?limit:int ->
  ?pool:Qs_util.Pool.t -> build:Table.t -> probe:Table.t -> Expr.pred list ->
  Table.t
(** One hash join over materialized inputs: equality conjuncts become the
    hash key, the rest are residual filters (exposed for the naive
    counter and tests). With [pool], build and probe are hash-partitioned
    into one bucket per pool slot and the buckets join in parallel; the
    output multiset is identical to the sequential join. *)

val hash_join_count : ?deadline:float -> ?cancel:Qs_util.Cancel.t ->
  build:Table.t -> probe:Table.t -> Expr.pred list -> int
(** Cardinality of [hash_join] without materializing its output — the
    oracle's way of counting explosive final joins in O(1) memory. *)

val cartesian : name:string -> Table.t list -> Table.t
(** Cross product of independent result tables — the final merge step of
    QuerySplit when isolated subquery results remain (§3.1). *)
