(* The observability layer: Q-error conventions, histogram quantiles
   against a sorted-array reference, trace capture, metrics JSON, and a
   golden EXPLAIN ANALYZE rendering. *)

module Qerror = Qs_obs.Qerror
module Histogram = Qs_obs.Histogram
module Metrics = Qs_obs.Metrics
module Trace = Qs_obs.Trace
module Explain = Qs_obs.Explain
module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Estimator = Qs_stats.Estimator
module Optimizer = Qs_plan.Optimizer
module Physical = Qs_plan.Physical
module Executor = Qs_exec.Executor
module Strategy = Qs_core.Strategy
module Rng = Qs_util.Rng

let feq ?(eps = 1e-9) what a b =
  if Float.abs (a -. b) > eps then Alcotest.failf "%s: %f <> %f" what a b

(* --- Q-error conventions ---------------------------------------------- *)

let test_qerror_basics () =
  feq "perfect" 1.0 (Qerror.value ~est:50.0 ~actual:50);
  feq "over 4x" 4.0 (Qerror.value ~est:200.0 ~actual:50);
  feq "under 4x" 4.0 (Qerror.value ~est:50.0 ~actual:200);
  (* the zero conventions *)
  feq "0 vs 0" 1.0 (Qerror.value ~est:0.0 ~actual:0);
  feq "0 vs n" 10.0 (Qerror.value ~est:0.0 ~actual:10);
  feq "n vs 0" 10.0 (Qerror.value ~est:10.0 ~actual:0);
  feq "fraction vs 0" 1.0 (Qerror.value ~est:0.3 ~actual:0);
  feq "floats" 2.0 (Qerror.of_floats ~est:1.0 ~actual:2.0)

let test_qerror_direction () =
  Alcotest.(check bool) "under" true (Qerror.underestimated ~est:10.0 ~actual:100);
  Alcotest.(check bool) "over" false (Qerror.underestimated ~est:100.0 ~actual:10);
  Alcotest.(check bool) "tie" false (Qerror.underestimated ~est:10.0 ~actual:10);
  Alcotest.(check bool) "zero tie" false (Qerror.underestimated ~est:0.0 ~actual:0)

(* --- histogram vs sorted-array reference ------------------------------ *)

(* nearest-rank on the raw sorted sample: the same rank formula the
   histogram uses, so only bucket quantization separates the two *)
let exact_percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.round (p *. float_of_int (n - 1))) in
  sorted.(max 0 (min (n - 1) rank))

let check_against_reference ~what values =
  let h = Histogram.create () in
  Array.iter (Histogram.observe h) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  Alcotest.(check int) (what ^ " count") (Array.length values) (Histogram.count h);
  feq ~eps:1e-6 (what ^ " min") sorted.(0) (Histogram.min_value h);
  feq ~eps:1e-6 (what ^ " max")
    sorted.(Array.length sorted - 1)
    (Histogram.max_value h);
  List.iter
    (fun p ->
      let expected = exact_percentile sorted p in
      let got = Histogram.percentile h p in
      let tolerance = Histogram.max_relative_error *. Float.max expected 1e-9 in
      if Float.abs (got -. expected) > tolerance +. 1e-9 then
        Alcotest.failf "%s p%.0f: got %g, expected %g (tolerance %g)" what
          (100.0 *. p) got expected tolerance)
    [ 0.0; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ]

let test_histogram_uniform () =
  let rng = Rng.create 11 in
  check_against_reference ~what:"uniform"
    (Array.init 5000 (fun _ -> Rng.float rng 1000.0))

let test_histogram_lognormal () =
  let rng = Rng.create 12 in
  check_against_reference ~what:"lognormal"
    (Array.init 5000 (fun _ -> Float.exp (Rng.gaussian rng ~mu:2.0 ~sigma:3.0)))

let test_histogram_qerror_like () =
  (* the actual use: q-errors are >= 1, heavy-tailed, many exact ones *)
  let rng = Rng.create 13 in
  check_against_reference ~what:"qerror"
    (Array.init 2000 (fun i ->
         if i mod 3 = 0 then 1.0
         else 1.0 +. Float.exp (Rng.gaussian rng ~mu:0.0 ~sigma:2.5)))

let test_histogram_edge_cases () =
  let h = Histogram.create () in
  Alcotest.(check bool) "empty mean NaN" true (Float.is_nan (Histogram.mean h));
  (* every percentile of an empty histogram is a well-defined 0.0, never
     NaN: telemetry thresholds compare against it *)
  feq "empty p0" 0.0 (Histogram.percentile h 0.0);
  feq "empty p50" 0.0 (Histogram.percentile h 0.5);
  feq "empty p100" 0.0 (Histogram.percentile h 1.0);
  Histogram.observe h 42.0;
  feq "single p0" 42.0 (Histogram.percentile h 0.0);
  feq "single p50" 42.0 (Histogram.percentile h 0.5);
  feq "single p100" 42.0 (Histogram.percentile h 1.0);
  (* the extreme ranks answer from the exact envelope, not a bucket
     representative: p100 of {1, 1000} is 1000, not the ~970 geometric
     midpoint of 1000's bucket *)
  let h2 = Histogram.create () in
  Histogram.observe h2 1.0;
  Histogram.observe h2 1000.0;
  feq "spread p0 exact min" 1.0 (Histogram.percentile h2 0.0);
  feq "spread p100 exact max" 1000.0 (Histogram.percentile h2 1.0);
  (* negatives and NaN clamp to zero instead of corrupting the counts *)
  Histogram.observe h (-5.0);
  Histogram.observe h Float.nan;
  Alcotest.(check int) "clamped still counted" 3 (Histogram.count h);
  feq "min is 0 after clamp" 0.0 (Histogram.min_value h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.observe a) [ 1.0; 2.0; 3.0 ];
  List.iter (Histogram.observe b) [ 100.0; 200.0 ];
  Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" 5 (Histogram.count a);
  feq "merged sum" 306.0 (Histogram.sum a);
  feq "merged max" 200.0 (Histogram.max_value a)

(* --- metrics registry ------------------------------------------------- *)

let test_metrics_counters_and_json () =
  let m = Metrics.create () in
  Metrics.incr m "runs";
  Metrics.incr m ~by:4 "runs";
  Metrics.incr m ~by:0 "timeouts";
  Metrics.observe m "latency" 0.25;
  Metrics.observe m "latency" 0.75;
  Alcotest.(check int) "counter" 5 (Metrics.counter m "runs");
  Alcotest.(check int) "absent counter" 0 (Metrics.counter m "nope");
  Alcotest.(check (list string)) "counter names" [ "runs"; "timeouts" ]
    (Metrics.counter_names m);
  let json = Metrics.to_json m in
  List.iter
    (fun needle ->
      if not (Str_helpers.contains json needle) then
        Alcotest.failf "JSON missing %s in %s" needle json)
    [ "\"runs\": 5"; "\"timeouts\": 0"; "\"latency\""; "\"count\": 2"; "\"p50\"" ];
  let many = Metrics.json_of_many [ ("a", m); ("b", Metrics.create ()) ] in
  Alcotest.(check bool) "labelled object" true
    (Str_helpers.contains many "\"a\": {" && Str_helpers.contains many "\"b\": {")

let test_metrics_merge () =
  (* merging per-domain registries must equal the registry a single
     domain would have accumulated *)
  let whole = Metrics.create () in
  let parts = [ Metrics.create (); Metrics.create (); Metrics.create () ] in
  List.iteri
    (fun d m ->
      Metrics.incr ~by:(d + 1) m "runs";
      Metrics.incr ~by:(d + 1) whole "runs";
      if d = 1 then (
        Metrics.incr m "timeouts";
        Metrics.incr whole "timeouts");
      List.iter
        (fun v ->
          Metrics.observe m "latency" v;
          Metrics.observe whole "latency" v)
        [ float_of_int d; float_of_int (10 * (d + 1)) ])
    parts;
  let merged = Metrics.create () in
  List.iter (Metrics.merge ~into:merged) parts;
  Alcotest.(check int) "counters add" (Metrics.counter whole "runs")
    (Metrics.counter merged "runs");
  Alcotest.(check int) "counter only in one part" (Metrics.counter whole "timeouts")
    (Metrics.counter merged "timeouts");
  Alcotest.(check (list string)) "counter names" (Metrics.counter_names whole)
    (Metrics.counter_names merged);
  (match (Metrics.histogram merged "latency", Metrics.histogram whole "latency") with
  | Some hm, Some hw ->
      Alcotest.(check int) "histogram count" (Histogram.count hw) (Histogram.count hm);
      feq "histogram sum" (Histogram.sum hw) (Histogram.sum hm);
      feq "histogram max" (Histogram.max_value hw) (Histogram.max_value hm)
  | _ -> Alcotest.fail "latency histogram missing after merge");
  (* src registries are untouched *)
  Alcotest.(check int) "src unchanged" 1 (Metrics.counter (List.hd parts) "runs")

(* --- trace + explain -------------------------------------------------- *)

let traced_shop_plan () =
  let cat, ctx = Fixtures.shop_ctx ~n_orders:600 () in
  let q = Fixtures.shop_query () in
  let frag = Strategy.fragment_of_query ctx q in
  let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
  let trace = Trace.create () in
  let table, stats = Executor.run ~trace plan in
  (plan, trace, table, stats)

let test_trace_covers_all_nodes () =
  let plan, trace, _, stats = traced_shop_plan () in
  List.iter
    (fun (n : Physical.t) ->
      (match Trace.find trace n.Physical.id with
      | None -> Alcotest.failf "node %d missing from trace" n.Physical.id
      | Some tn ->
          Alcotest.(check int)
            (Printf.sprintf "trace/stats agree on node %d" n.Physical.id)
            (Hashtbl.find stats n.Physical.id)
            tn.Trace.actual_rows;
          feq
            (Printf.sprintf "estimate recorded for node %d" n.Physical.id)
            n.Physical.est_rows tn.Trace.est_rows);
      ())
    (Physical.nodes plan);
  Alcotest.(check int) "trace size = plan size"
    (List.length (Physical.nodes plan))
    (Trace.size trace)

let test_trace_volumes () =
  let plan, trace, table, _ = traced_shop_plan () in
  let root = Option.get (Trace.find trace plan.Physical.id) in
  Alcotest.(check int) "root actual = result rows" (Table.n_rows table)
    root.Trace.actual_rows;
  Alcotest.(check bool) "root produced bytes" true (root.Trace.output_bytes > 0);
  (* every leaf scanned at least as many rows as it output *)
  List.iter
    (fun (n : Physical.t) ->
      match (n.Physical.node, Trace.find trace n.Physical.id) with
      | Physical.Scan _, Some tn ->
          Alcotest.(check bool)
            (Printf.sprintf "scan %d: scanned >= actual" n.Physical.id)
            true
            (tn.Trace.rows_scanned >= tn.Trace.actual_rows)
      | _ -> ())
    (Physical.nodes plan);
  Alcotest.(check bool) "total bytes positive" true
    (Trace.total_output_bytes trace > 0);
  (* a hash join consumes every row its children emit: build = left,
     probe = right *)
  let actual (p : Physical.t) =
    (Option.get (Trace.find trace p.Physical.id)).Trace.actual_rows
  in
  List.iter
    (fun (n : Physical.t) ->
      match n.Physical.node with
      | Physical.Join { method_ = Physical.Hash; left; right; _ } ->
          let tn = Option.get (Trace.find trace n.Physical.id) in
          Alcotest.(check int)
            (Printf.sprintf "join %d: built = left actual" n.Physical.id)
            (actual left) tn.Trace.rows_built;
          Alcotest.(check int)
            (Printf.sprintf "join %d: probed = right actual" n.Physical.id)
            (actual right) tn.Trace.rows_probed
      | _ -> ())
    (Physical.nodes plan);
  (* self times partition the root's inclusive time *)
  let self_sum = ref 0.0 in
  Trace.iter trace (fun n -> self_sum := !self_sum +. Trace.self_time trace n);
  Alcotest.(check bool)
    (Printf.sprintf "sum of self times %.6f <= root elapsed %.6f" !self_sum
       root.Trace.elapsed)
    true
    (!self_sum <= root.Trace.elapsed +. 1e-9)

(* The golden test pins the renderer's exact output for a hand-built plan
   executed on a hand-built table — timings suppressed, so the string is
   fully deterministic. *)
let test_explain_golden () =
  let module Value = Qs_storage.Value in
  let module Schema = Qs_storage.Schema in
  let cat = Catalog.create () in
  let t name cols rows =
    Table.of_rows ~name ~schema:(Schema.make name cols) (List.map Array.of_list rows)
  in
  let i x = Value.Int x in
  let dept =
    t "dept" [ ("id", Value.TInt) ] [ [ i 1 ]; [ i 2 ] ]
  in
  let emp =
    t "emp"
      [ ("id", Value.TInt); ("dept_id", Value.TInt) ]
      [ [ i 1; i 1 ]; [ i 2; i 1 ]; [ i 3; i 2 ]; [ i 4; i 9 ] ]
  in
  Catalog.add_table cat ~pk:"id" dept;
  Catalog.add_table cat ~pk:"id" emp;
  Catalog.add_fk cat ~from_table:"emp" ~from_column:"dept_id" ~to_table:"dept"
    ~to_column:"id";
  let registry = Qs_stats.Stats_registry.create cat in
  let module Fragment = Qs_stats.Fragment in
  let module Expr = Qs_query.Expr in
  let d = Fragment.base_input registry ~alias:"d" ~table:"dept" [] in
  let e = Fragment.base_input registry ~alias:"e" ~table:"emp" [] in
  let sd = Physical.scan d ~est_rows:2.0 ~est_cost:2.0 in
  let se = Physical.scan e ~est_rows:4.0 ~est_cost:4.0 in
  let join =
    Physical.join ~method_:Physical.Hash () ~left:sd ~right:se
      ~preds:[ Expr.eq (Expr.col "e" "dept_id") (Expr.col "d" "id") ]
      ~est_rows:8.0 ~est_cost:20.0
  in
  let trace = Trace.create () in
  let _ = Executor.run ~trace join in
  let golden =
    Printf.sprintf
      "HashJoin on e.dept_id = d.id  (est=8 actual=3 q=2.67)\n\
      \  Scan d  (est=2 actual=2 q=1.00)\n\
      \  Scan e  (est=4 actual=4 q=1.00)\n"
  in
  Alcotest.(check string) "explain analyze golden" golden
    (Explain.render ~trace ~timings:false join);
  Alcotest.(check string) "summary" "3 nodes, q-error max=2.67 mean=1.56, underest=0%"
    (Explain.summary ~trace join);
  (* force the join's estimate under its observation: 1 of 3 nodes is now
     underestimated per Qerror.underestimated *)
  (Option.get (Trace.find trace join.Physical.id)).Trace.est_rows <- 1.0;
  Alcotest.(check string) "summary with underestimates"
    "3 nodes, q-error max=3.00 mean=1.67, underest=33%"
    (Explain.summary ~trace join);
  (* without a trace: plain EXPLAIN, estimates only *)
  Alcotest.(check string) "explain golden"
    "HashJoin on e.dept_id = d.id  (est=8)\n\
    \  Scan d  (est=2)\n\
    \  Scan e  (est=4)\n"
    (Explain.render ~timings:false join)

(* self time = elapsed minus recorded children, clamped at 0 — checked on
   a hand-built 3-deep trace where every figure is exact *)
let test_trace_self_time () =
  let t = Trace.create () in
  let set id elapsed children =
    let n = Trace.node t id in
    n.Trace.elapsed <- elapsed;
    n.Trace.children <- children;
    n
  in
  let root = set 1 1.0 [ 2; 3 ] in
  let mid = set 2 0.3 [ 4 ] in
  let sib = set 3 0.2 [] in
  let leaf = set 4 0.25 [] in
  feq "root self" 0.5 (Trace.self_time t root);
  feq "mid self" 0.05 (Trace.self_time t mid);
  feq "sibling self (no children)" 0.2 (Trace.self_time t sib);
  feq "leaf self" 0.25 (Trace.self_time t leaf);
  (* a child that (through clock skew) out-measures its parent clamps *)
  leaf.Trace.elapsed <- 0.9;
  feq "clamped at 0" 0.0 (Trace.self_time t mid);
  (* unrecorded children are ignored, not counted as 0-cost *)
  sib.Trace.children <- [ 99 ];
  feq "missing child ignored" 0.2 (Trace.self_time t sib)

(* on a real executed plan: children lists mirror the plan shape and
   elapsed is inclusive, so self times are non-negative and bounded *)
let test_trace_self_time_executed () =
  let plan, trace, _, _ = traced_shop_plan () in
  Alcotest.(check bool) "plan is at least 3 deep" true
    (List.length (Physical.nodes plan) >= 3);
  List.iter
    (fun (p : Physical.t) ->
      let n = Option.get (Trace.find trace p.Physical.id) in
      let plan_children =
        match p.Physical.node with
        | Physical.Scan _ -> []
        | Physical.Join { left; right; _ } ->
            [ left.Physical.id; right.Physical.id ]
      in
      Alcotest.(check (list int))
        (Printf.sprintf "children of node %d" p.Physical.id)
        plan_children n.Trace.children;
      let self = Trace.self_time trace n in
      Alcotest.(check bool)
        (Printf.sprintf "0 <= self <= elapsed for node %d" p.Physical.id)
        true
        (self >= 0.0 && self <= n.Trace.elapsed +. 1e-12))
    (Physical.nodes plan)

(* satellite: Metrics.to_json must be byte-identical whatever order
   per-domain registries are merged in (values picked binary-exact so
   float addition is associative) *)
let test_metrics_json_merge_order () =
  let mk (c, vs) =
    let m = Metrics.create () in
    Metrics.incr m ~by:c "runs";
    List.iter (Metrics.observe m "latency") vs;
    m
  in
  let parts =
    [ mk (1, [ 1.5; 2.25 ]); mk (2, [ 7.75 ]); mk (4, [ 10.0; 3.5 ]) ]
  in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map
              (fun rest -> x :: rest)
              (permutations (List.filter (fun y -> y != x) l)))
          l
  in
  let json_of order =
    let m = Metrics.create () in
    List.iter (Metrics.merge ~into:m) order;
    Metrics.to_json m
  in
  let reference = json_of parts in
  List.iter
    (fun order ->
      Alcotest.(check string) "merge-order independent JSON" reference
        (json_of order))
    (permutations parts)

let test_explain_never_executed () =
  let cat, ctx = Fixtures.shop_ctx ~n_orders:200 () in
  let q = Fixtures.shop_query () in
  let frag = Strategy.fragment_of_query ctx q in
  let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
  let empty = Trace.create () in
  let rendered = Explain.render ~trace:empty ~timings:false plan in
  Alcotest.(check bool) "marks unexecuted nodes" true
    (Str_helpers.contains rendered "never executed");
  Alcotest.(check string) "summary of empty trace" "0 nodes traced"
    (Explain.summary ~trace:empty plan)

let suite =
  [
    Alcotest.test_case "qerror basics + zero conventions" `Quick test_qerror_basics;
    Alcotest.test_case "qerror direction" `Quick test_qerror_direction;
    Alcotest.test_case "histogram vs reference: uniform" `Quick test_histogram_uniform;
    Alcotest.test_case "histogram vs reference: lognormal" `Quick
      test_histogram_lognormal;
    Alcotest.test_case "histogram vs reference: qerror-like" `Quick
      test_histogram_qerror_like;
    Alcotest.test_case "histogram edge cases" `Quick test_histogram_edge_cases;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "metrics counters + json" `Quick test_metrics_counters_and_json;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "trace covers all nodes" `Quick test_trace_covers_all_nodes;
    Alcotest.test_case "trace volumes" `Quick test_trace_volumes;
    Alcotest.test_case "explain analyze golden" `Quick test_explain_golden;
    Alcotest.test_case "trace self time (hand-built)" `Quick test_trace_self_time;
    Alcotest.test_case "trace self time (executed plan)" `Quick
      test_trace_self_time_executed;
    Alcotest.test_case "metrics json merge-order determinism" `Quick
      test_metrics_json_merge_order;
    Alcotest.test_case "explain of unexecuted plan" `Quick test_explain_never_executed;
  ]
