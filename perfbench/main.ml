(* The repository benchmark.

     main.exe --workload <job_reopt|dsb_spill> --seed <n>
              --seconds <s> --trace <0|1>

   Each run sets the workload up (timed), computes one reference checksum
   per statement from its single-shot Default plan (untimed), runs one
   untimed warm pass, and then measures. With --trace 0 it measures the
   end-to-end metrics for --seconds with tracing off. With --trace 1 it
   runs a traced pass between two untraced ones and reports the
   per-layer split; on job_reopt it then serves the corpus for the
   serving readouts. Human-readable lines go to stderr; the
   last line of stdout is one JSON object. The exit code is nonzero when
   any execution failed or returned a result other than its reference. *)

module Table = Qs_storage.Table
module Buffer_pool = Qs_storage.Buffer_pool
module Estimator = Qs_stats.Estimator
module Strategy = Qs_core.Strategy
module Dp_memo = Qs_plan.Dp_memo
module Executor = Qs_exec.Executor
module Server = Qs_serve.Server
module Pool = Qs_util.Pool
module Span = Qs_util.Span
module Timer = Qs_util.Timer

let query_timeout = 10.0
let querysplit = Qs_core.Querysplit.strategy Qs_core.Querysplit.default_config

(* --- small statistics --------------------------------------------------- *)

(* Linear interpolation between closest ranks; 0 on no samples. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let j = min (i + 1) (Array.length a - 1) in
      a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median = quantile 0.5

(* Harrell-Davis quantile estimate: the mean of the order statistics,
   each weighted by the mass a Beta((n+1)q, (n+1)(1-q)) density puts on
   its share of [0, 1] (integrated on a grid). It uses every sample, so
   it moves less from run to run than the one or two order statistics
   [quantile] reads. That matters for the latency tail: the heaviest
   statements' latencies form separate clusters, and [quantile 0.95]
   reads the fastest execution of the heaviest cluster or the slowest of
   the next. The end-to-end latency percentiles use it. *)
let hd_quantile q xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n <= 1 then quantile q xs
  else
    let alpha = float_of_int (n + 1) *. q and beta = float_of_int (n + 1) *. (1.0 -. q) in
    let steps = 64 in
    let grid = n * steps in
    let log_density =
      Array.init grid (fun k ->
          let x = (float_of_int k +. 0.5) /. float_of_int grid in
          ((alpha -. 1.0) *. log x) +. ((beta -. 1.0) *. log (1.0 -. x)))
    in
    let top = Array.fold_left Float.max Float.neg_infinity log_density in
    let num = ref 0.0 and den = ref 0.0 in
    Array.iteri
      (fun k l ->
        let d = exp (l -. top) in
        num := !num +. (d *. a.(k / steps));
        den := !den +. d)
      log_density;
    !num /. !den

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0
let mb bytes = bytes /. 1048576.0

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- one execution ---------------------------------------------------- *)

type exec = {
  stmt : int;
  lat : float;  (** seconds *)
  ok : bool;  (** completed and matched its reference *)
  iters : Strategy.iteration list;
  alloc : float;  (** words allocated by the calling domain *)
  memo : int * int;  (** DP-memo hits, misses *)
}

type env = {
  corpus : Corpus.t;
  refs : (string * string) array;
      (** per statement: its reference [Corpus.checksum], and its
          [Table.digest] when the run serves (the server digests results
          itself), else "" *)
  estimator : Estimator.t;
  spans : Span.t option;
}

(* The default estimator, counting calls and (when traced) recording one
   [estimate] span per call. *)
let estimate_calls = Atomic.make 0

let counting_estimator spans =
  {
    Estimator.default with
    Estimator.card =
      (fun frag ->
        Atomic.incr estimate_calls;
        Span.span spans Span.Estimate "estimate" (fun () ->
            Estimator.default.Estimator.card frag));
  }

(* Run one statement under QuerySplit. Only the strategy call is timed:
   context set-up and checking the result stay outside. *)
let execute env i =
  let stmt = env.corpus.Corpus.stmts.(i) in
  let dp_memo = Dp_memo.create () in
  let ctx =
    Strategy.make_ctx ~deadline:(Some (Timer.now () +. query_timeout))
      ?spans:env.spans ~dp_memo env.corpus.Corpus.registry env.estimator
  in
  let a0 = alloc_words () in
  let t0 = Timer.now () in
  let outcome =
    try
      Ok
        (Span.span env.spans Span.Execute ("query:" ^ stmt.Corpus.name)
           (fun () -> Corpus.run querysplit ctx stmt))
    with e -> Error e
  in
  let lat = Timer.now () -. t0 in
  let alloc = alloc_words () -. a0 in
  let memo = (Dp_memo.hits dp_memo, Dp_memo.misses dp_memo) in
  match outcome with
  | Ok o ->
      let ok =
        (not o.Strategy.timed_out) && Corpus.checksum o.Strategy.result = fst env.refs.(i)
      in
      if not ok then Printf.eprintf "FAIL %s: %s\n%!" stmt.Corpus.name
          (if o.Strategy.timed_out then "timed out" else "result differs from its reference");
      { stmt = i; lat; ok; iters = o.Strategy.iterations; alloc; memo }
  | Error e ->
      Printf.eprintf "FAIL %s: %s\n%!" stmt.Corpus.name (Printexc.to_string e);
      { stmt = i; lat; ok = false; iters = []; alloc; memo }

(* One closed-loop pass over every statement in [order]. On a spilled
   corpus a pin still held after the pass fails the pass's last
   execution. *)
let pass env order =
  let execs = Array.to_list (Array.map (execute env) order) in
  match env.corpus.Corpus.spill with
  | Some s when Buffer_pool.pinned s.Corpus.bp > 0 ->
      Printf.eprintf "FAIL: %d frames still pinned after a pass\n%!"
        (Buffer_pool.pinned s.Corpus.bp);
      List.mapi (fun k e -> if k = List.length execs - 1 then { e with ok = false } else e) execs
  | _ -> execs

(* --- results ---------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

let print_json ~correct o =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let metrics =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit_)
      o.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed (String.concat ", " metrics)

(* --- set-up ----------------------------------------------------------- *)

let spill_root = ".perfbench-spill"

(* Set the workload up several times and keep the last; the reported
   set-up time is the median. Repetitions stop once the set-ups so far
   took [setup_budget] seconds, so a slow set-up (query curation) runs
   once. *)
let setup_budget = 10.0
let setup_reps = 3

let setup workload ~io =
  let make rep =
    match workload with
    | "dsb_spill" ->
        let dir = Filename.concat spill_root (Printf.sprintf "%d-%d" (Unix.getpid ()) rep) in
        (try Sys.mkdir spill_root 0o755 with Sys_error _ -> ());
        Sys.mkdir dir 0o755;
        Corpus.dsb ~dir ~io:(Option.get io)
    | _ -> Corpus.cinema ()
  in
  (* [timings] holds (phases, seconds) per repetition; only the last
     corpus is kept, so a discarded one can be freed before the next
     repetition and does not inflate the peak RSS *)
  let rec go rep timings =
    let c, dt = Timer.time (fun () -> make rep) in
    let timings = (c.Corpus.phases, dt) :: timings in
    let spent = List.fold_left (fun a (_, t) -> a +. t) 0.0 timings in
    if rep + 1 < setup_reps && spent < setup_budget then begin
      Corpus.release c;
      Gc.full_major ();
      go (rep + 1) timings
    end
    else (c, List.rev timings)
  in
  let corpus, timings = go 0 [] in
  let phase name = median (List.map (fun (p, _) -> List.assoc name p) timings) in
  Printf.eprintf "set-up: %d repetition(s), %s\n%!" (List.length timings)
    (String.concat ", " (List.map (fun (_, dt) -> Printf.sprintf "%.3f s" dt) timings));
  (corpus, median (List.map snd timings), phase)

(* --- the closed-loop batch workloads ---------------------------------- *)

let failures execs = List.length (List.filter (fun e -> not e.ok) execs)

(* Whole passes, each in a fresh seeded order, until [seconds] of wall
   clock have gone by; the end-to-end metrics over every execution. *)
let measure_batch env ~rng ~seconds ~setup_s =
  let ids = Array.init (Array.length env.corpus.Corpus.stmts) Fun.id in
  let t0 = Timer.now () in
  let rec loop acc =
    if acc <> [] && Timer.now () -. t0 >= seconds then acc
    else loop (pass env (shuffle rng ids) @ acc)
  in
  let execs = loop [] in
  let n = float_of_int (List.length execs) in
  let lats = List.map (fun e -> 1000.0 *. e.lat) execs in
  let timed_wall = sum lats /. 1000.0 in
  let mat_bytes =
    List.concat_map (fun e -> e.iters) execs
    |> List.fold_left (fun a i -> a + i.Strategy.mat_bytes) 0
  in
  let ok = float_of_int (List.length (List.filter (fun e -> e.ok) execs)) in
  Printf.eprintf "measured %.0f executions in %.3f s of timed wall clock\n%!" n timed_wall;
  {
    attempted = List.length execs;
    failed = failures execs;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "query_p50_ms" "ms" (hd_quantile 0.5 lats);
        m "query_p95_ms" "ms" (hd_quantile 0.95 lats);
        m "throughput_qps" "1/s" (ratio ok timed_wall);
        m "ok_ratio" "ratio" (ratio ok n);
        m "mat_mb_per_query" "MB" (mb (ratio (float_of_int mat_bytes) n));
        m "peak_rss_mb" "MB" (peak_rss_mb ());
      ];
  }

(* --- per-layer readouts ----------------------------------------------- *)

(* Each per-layer metric with the end-to-end metric it should move and on
   which workload — written down before anything is measured. *)
let predictions =
  [
    ("workload.generate_s", "s", "setup_s", "all");
    ("workload.curate_s", "s", "setup_s", "job_reopt (near zero on dsb_spill)");
    ("storage.index_build_s", "s", "setup_s", "all");
    ("stats.analyze_base_s", "s", "setup_s", "all");
    ("storage.pool_hit_ratio", "ratio", "query_p50_ms, throughput_qps", "dsb_spill");
    ("storage.pool_misses", "count", "query_p50_ms, throughput_qps", "dsb_spill");
    ("storage.pool_evictions", "count", "query_p50_ms, throughput_qps", "dsb_spill");
    ("storage.prefetch_used_ratio", "ratio", "query_p50_ms, throughput_qps", "dsb_spill");
    ("storage.io_s", "s", "query_p50_ms, throughput_qps", "dsb_spill");
    ("storage.spill_write_mb", "MB", "query_p50_ms, throughput_qps", "dsb_spill");
    ("storage.spill_files_left", "count", "query_p50_ms, throughput_qps", "dsb_spill");
    ("storage.pinned_after_pass", "count", "query_p50_ms, throughput_qps", "dsb_spill");
    ("stats.analyze_temp_s", "s", "query_p50_ms", "dsb_spill (barely job_reopt)");
    ("stats.estimate_s", "s", "query_p95_ms", "job_reopt");
    ("stats.estimate_calls", "count", "query_p95_ms", "job_reopt");
    ("stats.qerror_p50", "ratio", "query_p95_ms", "job_reopt");
    ("stats.qerror_p95", "ratio", "query_p95_ms", "job_reopt");
    ("plan.optimize_s", "s", "query_p50_ms", "job_reopt (small)");
    ("plan.optimize_calls", "count", "query_p50_ms", "job_reopt (small)");
    ("plan.dp_memo_hit_ratio", "ratio", "query_p50_ms", "job_reopt (small)");
    ("plan.plan_cache_hit_ratio", "ratio", "serve.latency_p50_ms", "job_reopt traced run");
    ("core.steps_per_query", "count", "query_p95_ms, mat_mb_per_query", "job_reopt");
    ("core.replans_per_query", "count", "query_p95_ms, mat_mb_per_query", "job_reopt");
    ("core.mats_per_query", "count", "query_p95_ms, mat_mb_per_query", "job_reopt");
    ("core.step_p50_ms", "ms", "query_p95_ms, mat_mb_per_query", "job_reopt");
    ("core.step_p95_ms", "ms", "query_p95_ms, mat_mb_per_query", "job_reopt");
    ("exec.pipeline_s", "s", "query_p50_ms", "job_reopt, dsb_spill");
    ("exec.breaker_s", "s", "query_p50_ms", "job_reopt, dsb_spill");
    ("exec.unattributed_s", "s", "query_p50_ms", "job_reopt, dsb_spill");
    ("exec.intermediate_tables", "count", "query_p50_ms", "job_reopt, dsb_spill");
    ("exec.partition_reuses", "count", "query_p50_ms", "job_reopt, dsb_spill");
    ("exec.vectorized_chunks", "count", "query_p50_ms", "job_reopt, dsb_spill");
    ("serve.latency_p50_ms", "ms", "(serving readout)", "job_reopt traced run");
    ("serve.latency_p95_ms", "ms", "(serving readout)", "job_reopt traced run");
    ("serve.queue_wait_p50_ms", "ms", "serve.latency_p95_ms, serve.max_ok_qps", "job_reopt traced run");
    ("serve.queue_wait_p95_ms", "ms", "serve.latency_p95_ms, serve.max_ok_qps", "job_reopt traced run");
    ("serve.exec_p50_ms", "ms", "serve.latency_p95_ms, serve.max_ok_qps", "job_reopt traced run");
    ("serve.exec_p95_ms", "ms", "serve.latency_p95_ms, serve.max_ok_qps", "job_reopt traced run");
    ("serve.peak_queue", "count", "serve.latency_p95_ms, serve.max_ok_qps", "job_reopt traced run");
    ("serve.generator_lag_p99_ms", "ms", "serve.latency_p95_ms, serve.max_ok_qps", "job_reopt traced run");
    ("serve.max_ok_qps", "1/s", "(serving readout)", "job_reopt traced run");
    ("pool.wait_s", "s", "serve.latency_p95_ms, serve.max_ok_qps", "job_reopt traced run");
    ("runtime.alloc_mb_per_query", "MB", "throughput_qps", "all");
    ("runtime.major_gcs", "count", "throughput_qps", "all");
    ("trace.unattributed_s", "s", "(readout: time in no layer span)", "all");
    ("trace.unattributed_share", "ratio", "(readout: share of traced busy time)", "all");
    ("trace.overhead_ratio", "ratio", "(readout: traced over untraced time)", "all");
  ]

let print_predictions () =
  List.iter
    (fun (name, _, moves, on) ->
      Printf.eprintf "prediction: %-28s should move %s on %s\n" name moves on)
    predictions;
  flush stderr

(* Counters sampled around the traced region. *)
type probe = {
  bp : Buffer_pool.stats option;
  files : int * int;
  gcs : int;
  calls : int;
}

let probe corpus =
  {
    bp = Option.map (fun s -> Buffer_pool.stats s.Corpus.bp) corpus.Corpus.spill;
    files = Corpus.spill_usage corpus;
    gcs = (Gc.quick_stat ()).Gc.major_collections;
    calls = Atomic.get estimate_calls;
  }

(* Time dispatched queries sat in the pool's queue before a worker took
   them: from the server's [dispatch] marker to the end of its
   [queue-wait] span, matched by query id. *)
let pool_queue_wait spans =
  let dispatched = Hashtbl.create 256 and started = Hashtbl.create 256 in
  List.iter
    (fun (s : Span.span) ->
      match (s.Span.cat, s.Span.name, List.assoc_opt "query" s.Span.args) with
      | Span.Serve, "dispatch", Some id -> Hashtbl.replace dispatched id s.Span.start
      | Span.Serve, "queue-wait", Some id -> Hashtbl.replace started id (Selftime.stop s)
      | _ -> ())
    spans;
  Hashtbl.fold
    (fun id d acc ->
      match Hashtbl.find_opt started id with
      | Some st -> acc +. Float.max 0.0 (st -. d)
      | None -> acc)
    dispatched 0.0

(* Per-layer metrics of one traced pass: [execs] are its executions,
   [spans] its recording, [before] the counters sampled when it began.
   Every name of [predictions] appears; a layer the workload does not
   exercise reads 0, and the caller fills in the readouts this pass
   cannot give (tracing overhead, serving). *)
let layer_metrics ~corpus ~phase ~execs ~spans ~before =
  let after = probe corpus in
  let s = Selftime.summarize spans in
  let self cats = Selftime.self_of s cats in
  let n = float_of_int (max 1 (List.length execs)) in
  let iters = List.concat_map (fun e -> e.iters) execs in
  let count p = float_of_int (List.length (List.filter p iters)) in
  let qerrors =
    List.map
      (fun (i : Strategy.iteration) ->
        Qs_obs.Qerror.value ~est:i.Strategy.est_rows ~actual:i.Strategy.actual_rows)
      iters
  in
  let steps_ms = List.map (fun (i : Strategy.iteration) -> 1000.0 *. i.Strategy.elapsed) iters in
  let hits = sum (List.map (fun e -> float_of_int (fst e.memo)) execs) in
  let misses = sum (List.map (fun e -> float_of_int (snd e.memo)) execs) in
  let bp f =
    match (before.bp, after.bp) with
    | Some b, Some a -> float_of_int (f a - f b)
    | _ -> 0.0
  in
  let bp_hits = bp (fun x -> x.Buffer_pool.hits) in
  let bp_misses = bp (fun x -> x.Buffer_pool.misses) in
  let pinned =
    match corpus.Corpus.spill with
    | Some sp -> float_of_int (Buffer_pool.pinned sp.Corpus.bp)
    | None -> 0.0
  in
  let unattributed = self [ Span.Execute; Span.Pool_task ] in
  let computed =
    [
      ("workload.generate_s", phase "workload.generate_s");
      ("workload.curate_s", phase "workload.curate_s");
      ("storage.index_build_s", phase "storage.index_build_s");
      ("stats.analyze_base_s", phase "stats.analyze_base_s");
      ("storage.pool_hit_ratio", ratio bp_hits (bp_hits +. bp_misses));
      ("storage.pool_misses", bp_misses);
      ("storage.pool_evictions", bp (fun x -> x.Buffer_pool.evictions));
      ( "storage.prefetch_used_ratio",
        ratio (bp (fun x -> x.Buffer_pool.prefetch_used))
          (bp (fun x -> x.Buffer_pool.prefetch_issued)) );
      ("storage.io_s", s.Selftime.total Span.Io);
      ("storage.spill_write_mb", mb (float_of_int (snd after.files - snd before.files)));
      ("storage.spill_files_left", float_of_int (fst after.files - fst before.files));
      ("storage.pinned_after_pass", pinned);
      ("stats.analyze_temp_s", self [ Span.Analyze ]);
      ("stats.estimate_s", self [ Span.Estimate ]);
      ("stats.estimate_calls", float_of_int (after.calls - before.calls));
      ("stats.qerror_p50", quantile 0.5 qerrors);
      ("stats.qerror_p95", quantile 0.95 qerrors);
      ("plan.optimize_s", self [ Span.Optimize; Span.Dp_level ]);
      ("plan.optimize_calls", float_of_int (s.Selftime.count Span.Optimize));
      ("plan.dp_memo_hit_ratio", ratio hits (hits +. misses));
      ("core.steps_per_query", float_of_int (List.length iters) /. n);
      ("core.replans_per_query", count (fun i -> i.Strategy.replanned) /. n);
      ("core.mats_per_query", count (fun i -> i.Strategy.materialized) /. n);
      ("core.step_p50_ms", quantile 0.5 steps_ms);
      ("core.step_p95_ms", quantile 0.95 steps_ms);
      ("exec.pipeline_s", self [ Span.Pipeline; Span.Operator ]);
      ("exec.breaker_s", self [ Span.Breaker ]);
      ("exec.unattributed_s", self [ Span.Execute ]);
      ("exec.intermediate_tables", float_of_int (Executor.intermediate_tables ()));
      ("exec.partition_reuses", float_of_int (Executor.partition_reuses ()));
      ("exec.vectorized_chunks", float_of_int (Executor.vectorized_chunks ()));
      ("pool.wait_s", s.Selftime.total Span.Pool_wait);
      ("runtime.alloc_mb_per_query", mb (8.0 *. sum (List.map (fun e -> e.alloc) execs) /. n));
      ("runtime.major_gcs", float_of_int (after.gcs - before.gcs));
      ("trace.unattributed_s", unattributed);
      ("trace.unattributed_share", ratio unattributed s.Selftime.busy);
    ]
  in
  Printf.eprintf "traced busy time %.3f s; self time by span category:\n" s.Selftime.busy;
  List.iter
    (fun (c, v) ->
      if v > 0.0 then Printf.eprintf "  %-12s %9.3f s\n" (Span.category_name c) v)
    s.Selftime.self;
  Printf.eprintf "unattributed remainder %.3f s (%.1f%% of busy)\n%!" unattributed
    (100.0 *. ratio unattributed s.Selftime.busy);
  List.map
    (fun (name, unit_, _, _) ->
      m name unit_ (Option.value (List.assoc_opt name computed) ~default:0.0))
    predictions

(* --- the serving path ---------------------------------------------------

   job_reopt's traced run also serves its corpus through [Qs_serve.Server]
   (QuerySplit strategy, cost-aware scheduling, telemetry on): an open
   loop at [serve_rate] from [sessions] sessions, then a ladder of offered
   rates. These are per-layer readouts; end-to-end serving latency was too
   unsteady run to run to gate on (see README.md). *)

let sessions = 4
let serve_rate = 3.0
let latency_limit_ms = 2000.0
let ladder = [ 2.0; 4.0; 6.0; 8.0 ]
let ladder_seconds = 5.0

(* Zipf(1) popularity over a fixed permutation of the statements, so
   popularity is decoupled from cost; [n] requests are spread over the
   ranks by largest remainder, so every seed draws the same multiset. *)
let statement_mix ~stmts n =
  let perm = shuffle (Random.State.make [| Corpus.data_seed |]) (Array.init stmts Fun.id) in
  let w = Array.init stmts (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let exact = Array.map (fun x -> float_of_int n *. x /. total) w in
  let counts = Array.map Float.to_int exact in
  let left = n - Array.fold_left ( + ) 0 counts in
  let remainder r = exact.(r) -. Float.floor exact.(r) in
  List.sort (fun a b -> Float.compare (remainder b) (remainder a)) (List.init stmts Fun.id)
  |> List.iteri (fun k r -> if k < left then counts.(r) <- counts.(r) + 1);
  Array.concat (Array.to_list (Array.mapi (fun r c -> Array.make c perm.(r)) counts))

type request = {
  r_stmt : int;
  due : float;  (** seconds after the window opened *)
  session : int;
}

(* [n] requests at [rate] per second: a seeded Poisson process
   conditioned on its count (arrival times are sorted uniforms over the
   window), statements in seeded order, sessions drawn uniformly. *)
let requests ~rng ~stmts ~rate ~seconds =
  let n = max 1 (Float.to_int (Float.round (rate *. seconds))) in
  let order = shuffle rng (statement_mix ~stmts n) in
  let dues = Array.init n (fun _ -> Random.State.float rng seconds) in
  Array.sort Float.compare dues;
  Array.mapi
    (fun k stmt -> { r_stmt = stmt; due = dues.(k); session = Random.State.int rng sessions })
    order

type served = {
  execs : exec list;  (** latency from due time to completion *)
  results : Server.result list;
  lags : float list;  (** generator lateness, seconds *)
  wall : float;  (** window open to last completion *)
  peak_queue : int;
  cache_hits : int;
  cache_lookups : int;
}

(* Drive one open-loop window through a fresh server on a two-domain
   pool: the calling domain generates (sleeping between arrivals), the
   other executes. The strategy is QuerySplit, wrapped only to note when
   each execution started and its iterations, keyed by flight id (the
   admission order). *)
let serve env reqs =
  let stmts = env.corpus.Corpus.stmts in
  let index = Hashtbl.create 64 in
  Array.iteri (fun i s -> Hashtbl.replace index s.Corpus.name i) stmts;
  let noted = Hashtbl.create 256 in
  let lock = Mutex.create () in
  let wrapped =
    {
      querysplit with
      Strategy.run =
        (fun ctx q ->
          let t0 = Timer.now () in
          let o =
            Span.span env.spans Span.Execute ("query:" ^ q.Qs_query.Query.name) (fun () ->
                querysplit.Strategy.run ctx q)
          in
          Option.iter
            (fun fl ->
              Mutex.protect lock (fun () ->
                  Hashtbl.replace noted (Qs_obs.Flight.id fl) (t0, o.Strategy.iterations)))
            ctx.Strategy.flight;
          o);
    }
  in
  Pool.with_pool ?tracer:env.spans ~domains:2 (fun pool ->
      let server =
        Server.create ?spans:env.spans ~strategy:wrapped ~pool env.corpus.Corpus.registry
          env.estimator
      in
      let calls = Array.make (Array.length reqs) 0.0 in
      let origin = Timer.now () +. 0.01 in
      Array.iteri
        (fun k r ->
          let wait = origin +. r.due -. Timer.now () in
          if wait > 0.0 then Unix.sleepf wait;
          calls.(k) <- Timer.now ();
          match stmts.(r.r_stmt).Corpus.shape with
          | Corpus.Spj q ->
              ignore
                (Server.submit server ~session:(Printf.sprintf "s%d" r.session)
                   ~deadline:query_timeout q)
          | Corpus.Tree _ -> invalid_arg "serve: SPJ statements only")
        reqs;
      Server.drain server;
      let results = Server.results server in
      let timed =
        List.map
          (fun (res : Server.result) ->
            let k = res.Server.id in
            let i = Hashtbl.find index res.Server.query in
            let start, iters =
              Option.value (Hashtbl.find_opt noted k)
                ~default:(calls.(k) +. res.Server.queue_wait, [])
            in
            let ok =
              res.Server.status = Server.Completed && res.Server.digest = Some (snd env.refs.(i))
            in
            if not ok then Printf.eprintf "FAIL %s (request %d)\n%!" res.Server.query k;
            let finish = start +. res.Server.exec_time in
            let lat = finish -. (origin +. reqs.(k).due) in
            ({ stmt = i; lat; ok; iters; alloc = 0.0; memo = (0, 0) }, finish))
          results
      in
      let cache = Server.plan_cache server in
      {
        execs = List.map fst timed;
        results;
        lags = Array.to_list (Array.mapi (fun k c -> c -. (origin +. reqs.(k).due)) calls);
        wall = List.fold_left (fun a (_, f) -> Float.max a f) origin timed -. origin;
        peak_queue = Server.peak_queue server;
        cache_hits = Qs_plan.Plan_cache.hits cache;
        cache_lookups = Qs_plan.Plan_cache.hits cache + Qs_plan.Plan_cache.misses cache;
      })

let served_failures reqs r = failures r.execs + (Array.length reqs - List.length r.execs)

(* The rate ladder: the highest offered rate up to which every rung keeps
   its p95 latency under the limit, with every request completed and no
   backlog left when the window closes (the last completion lands within
   one limit of it). Returns it with the failures seen. *)
let max_ok_qps env ~rng =
  let stmts = Array.length env.corpus.Corpus.stmts in
  let best, _, failed =
    List.fold_left
      (fun (best, climbing, failed) rate ->
        let reqs = requests ~rng ~stmts ~rate ~seconds:ladder_seconds in
        let r = serve env reqs in
        let p95 = quantile 0.95 (List.map (fun e -> 1000.0 *. e.lat) r.execs) in
        let f = served_failures reqs r in
        let ok =
          f = 0 && p95 <= latency_limit_ms
          && r.wall <= ladder_seconds +. (latency_limit_ms /. 1000.0)
        in
        Printf.eprintf "ladder: %.1f qps offered: p95 %.1f ms, window %.2f s, peak queue %d -> %s\n%!"
          rate p95 r.wall r.peak_queue (if ok then "ok" else "over");
        let climbing = climbing && ok in
        ((if climbing then rate else best), climbing, failed + f))
      (0.0, true, 0) ladder
  in
  (best, failed)

(* The serving readouts: the ladder, then one traced window at
   [serve_rate]. Returns them with the failures seen. *)
let serve_layer env ~rng ~seconds =
  let best, ladder_failed = max_ok_qps env ~rng in
  let reqs = requests ~rng ~stmts:(Array.length env.corpus.Corpus.stmts) ~rate:serve_rate ~seconds in
  let tracer = Span.create () in
  let r = serve { env with spans = Some tracer } reqs in
  let ms f = List.map (fun (x : Server.result) -> 1000.0 *. f x) r.results in
  let lat = List.map (fun e -> 1000.0 *. e.lat) r.execs in
  ( [
      ("plan.plan_cache_hit_ratio", ratio (float_of_int r.cache_hits) (float_of_int r.cache_lookups));
      ("serve.latency_p50_ms", quantile 0.5 lat);
      ("serve.latency_p95_ms", quantile 0.95 lat);
      ("serve.queue_wait_p50_ms", quantile 0.5 (ms (fun x -> x.Server.queue_wait)));
      ("serve.queue_wait_p95_ms", quantile 0.95 (ms (fun x -> x.Server.queue_wait)));
      ("serve.exec_p50_ms", quantile 0.5 (ms (fun x -> x.Server.exec_time)));
      ("serve.exec_p95_ms", quantile 0.95 (ms (fun x -> x.Server.exec_time)));
      ("serve.peak_queue", float_of_int r.peak_queue);
      ("serve.generator_lag_p99_ms", 1000.0 *. quantile 0.99 r.lags);
      ("serve.max_ok_qps", best);
      ("pool.wait_s", pool_queue_wait (Span.spans tracer));
    ],
    Array.length reqs,
    ladder_failed + served_failures reqs r )

(* The traced run of a batch workload: a traced pass between two
   untraced ones in the same order (so a drift in machine speed does not
   read as tracing overhead), then, on job_reopt, the serving readouts. *)
let trace_batch workload env ~rng ~seconds ~phase =
  let n = Array.length env.corpus.Corpus.stmts in
  let order = shuffle rng (Array.init n Fun.id) in
  let before_trace = pass env order in
  let tracer = Span.create () in
  (match env.corpus.Corpus.spill with
  | Some s -> Buffer_pool.set_tracer s.Corpus.bp (Some tracer)
  | None -> ());
  let traced_env = { env with spans = Some tracer; estimator = counting_estimator (Some tracer) } in
  Executor.reset_counters ();
  let before = probe env.corpus in
  let execs = pass traced_env order in
  let metrics = layer_metrics ~corpus:env.corpus ~phase ~execs ~spans:(Span.spans tracer) ~before in
  let untraced = before_trace @ pass env order in
  let wall l = sum (List.map (fun e -> e.lat) l) in
  let overhead = ratio (wall execs) (wall untraced /. 2.0) in
  Printf.eprintf "tracing overhead %.3fx\n%!" overhead;
  let serving, served, serve_failed =
    if workload = "job_reopt" then serve_layer env ~rng ~seconds else ([], 0, 0)
  in
  let readouts = ("trace.overhead_ratio", overhead) :: serving in
  let all = untraced @ execs in
  {
    attempted = List.length all + served;
    failed = failures all + serve_failed;
    metrics =
      List.map
        (fun x -> { x with value = Option.value (List.assoc_opt x.name readouts) ~default:x.value })
        metrics;
  }

(* --- main ------------------------------------------------------------- *)

let workloads = [ "job_reopt"; "dsb_spill" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " job_reopt | dsb_spill");
      ("--seed", Arg.Set_int seed, " traffic seed (query order; serving arrivals and sessions)");
      ("--seconds", Arg.Set_float seconds, " length of the measured window");
      ("--trace", Arg.Set_int trace, " 1: per-layer traced run instead of end-to-end");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload; expected one of: " ^ String.concat ", " workloads);
    exit 2
  end;
  let rng = Random.State.make [| !seed |] in
  if !trace = 1 then print_predictions ();
  (* dsb_spill's prefetch reads run on a second domain; job_reopt runs on
     the calling domain alone (its serving readouts bring their own
     two-domain pool). *)
  let with_io f =
    if !workload = "dsb_spill" then Pool.with_pool ~domains:2 (fun p -> f (Some p)) else f None
  in
  let correct =
    with_io (fun io ->
        let corpus, setup_s, phase = setup !workload ~io in
        Fun.protect
          ~finally:(fun () ->
            Corpus.release corpus;
            try Sys.rmdir spill_root with Sys_error _ -> ())
          (fun () ->
            let serves = !trace = 1 && !workload = "job_reopt" in
            let refs, ref_dt =
              Timer.time (fun () ->
                  Corpus.references corpus (fun r ->
                      (Corpus.checksum r, if serves then Table.digest r else "")))
            in
            let env = { corpus; refs; estimator = Estimator.default; spans = None } in
            let n = Array.length corpus.Corpus.stmts in
            Printf.eprintf "%s: %d statements; set-up %.3f s; references %.3f s\n%!" !workload n
              setup_s ref_dt;
            let warm, warm_dt = Timer.time (fun () -> pass env (Array.init n Fun.id)) in
            Printf.eprintf "warm pass %.3f s\n%!" warm_dt;
            let o =
              if !trace = 0 then measure_batch env ~rng ~seconds:!seconds ~setup_s
              else trace_batch !workload env ~rng ~seconds:!seconds ~phase
            in
            let correct = o.failed = 0 && failures warm = 0 in
            List.iter
              (fun x -> Printf.eprintf "%-28s %14.4f %s\n" x.name x.value x.unit_)
              o.metrics;
            print_json ~correct o;
            correct))
  in
  if not correct then exit 1
