(** Comparing two metrics-JSON dumps (the {!Metrics.json_of_many} shape,
    as written by [bench --metrics-out]) — the logic behind
    [tools/bench_diff].

    {!exact} is the counter gate: [dune runtest] compares a fresh dump
    of the code with the committed [bench/baseline.json] through it.
    {!diff} is a relative-threshold comparison for runs compared by
    hand. It treats every dumped metric as higher-is-worse (times,
    bytes, Q-error, timeout/materialization counts), so a relative
    increase beyond the threshold is a regression and a decrease an
    improvement; the [queries] counter is workload size and is instead
    checked for equality. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

val parse : string -> (json, string) result
(** Full-grammar JSON parser (no external dependency, mirroring the
    hand-rolled rendering in {!Metrics}). *)

type change = {
  strategy : string;
  metric : string;  (** ["counter:<name>"] or ["histogram:<name> mean"] *)
  old_value : float;
  new_value : float;
}

type report = {
  threshold : float;
  regressions : change list;  (** relative increase beyond the threshold *)
  improvements : change list;  (** relative decrease beyond the threshold *)
  missing : string list;
      (** strategies/metrics present in the old dump but absent (or, for
          [queries], unequal) in the new one *)
}

val diff : ?threshold:float -> old_:json -> new_:json -> unit -> report
(** [threshold] is relative (default [0.2] = 20%). Strategies and
    metrics are driven from the old dump; extra entries in the new dump
    are ignored (adding metrics is not a regression). *)

val render : report -> string

type exact = {
  counters : int;  (** counters present and equal in both dumps *)
  histogram_counts : int;  (** histogram observation counts equal in both *)
  mismatches : string list;
      (** ["entry/counter old→new"] (or ["entry/histogram.count old→new"],
          or ["entry present→absent"]), [absent] standing for a value
          missing from one dump *)
}

val exact : old_:json -> new_:json -> exact
(** Exact comparison of every entry, every counter and every histogram's
    observation [count]: each must be present in both dumps with the
    same value, and any difference, in either direction, is a mismatch.
    Histogram values (means, percentiles) are not compared: they
    measure wall clock. *)
