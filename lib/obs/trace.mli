(** Structured per-operator execution traces.

    The executor fills one {!node} per physical plan node it evaluates:
    the optimizer's estimate, the observed cardinality and their Q-error,
    wall-clock time (inclusive of children — subtract child times for
    self time), output bytes, and the operator's input volumes (rows
    scanned at leaves, rows on the build/probe sides of joins).

    The trace comes from the engine every run uses: with [?trace] the
    executor reads the clock once per morsel hand-off between operators
    and sums the bytes of each morsel an operator emits. Without it,
    neither happens. *)

type node = {
  id : int;  (** the {!Qs_plan.Physical.t} node id *)
  mutable est_rows : float;
  mutable actual_rows : int;
  mutable elapsed : float;  (** seconds, inclusive of children *)
  mutable output_bytes : int;
  mutable rows_scanned : int;  (** leaf: rows read before filtering *)
  mutable rows_built : int;  (** hash join: build-side input rows *)
  mutable rows_probed : int;  (** join: probe/outer-side input rows *)
  mutable children : int list;
      (** trace-node ids of this operator's plan children, recorded by
          the executor so self time can be computed without the plan *)
}

type t

val create : unit -> t

val node : t -> int -> node
(** Find-or-create the record for a plan node id. *)

val find : t -> int -> node option

val size : t -> int
(** Number of nodes recorded so far. *)

val qerror : node -> float
(** {!Qerror.value} of the node's estimate vs. its observation. *)

val iter : t -> (node -> unit) -> unit

val self_time : t -> node -> float
(** [elapsed] minus the [elapsed] of every recorded child, clamped at 0
    — the time the operator itself spent, excluding its inputs. *)

val total_output_bytes : t -> int
