module Physical = Qs_plan.Physical
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Value = Qs_storage.Value
module Index = Qs_storage.Index
module Fragment = Qs_stats.Fragment
module Expr = Qs_query.Expr
module Trace = Qs_obs.Trace
module Scratch = Qs_util.Scratch
module Cancel = Qs_util.Cancel
module Timer = Qs_util.Timer
module Pool = Qs_util.Pool
module Span = Qs_util.Span

exception Timeout

let default_row_limit = 2_000_000

type stats = (int, int) Hashtbl.t

(* Execution model: [Materialize] is the original executor — every
   operator builds its whole output table before the parent starts.
   [Pipeline] is the morsel-driven engine below — filters and probes
   fuse into chunk-sized morsel streams and only pipeline breakers
   (hash builds, partition barriers, NL inners) buffer rows. Results
   are multiset-identical; the global default is overridable per call. *)
type mode = Materialize | Pipeline

let default_mode = ref Pipeline
let set_default_mode m = default_mode := m
let execution_mode () = !default_mode

(* Observability counters (cumulative, reset around experiments): how
   many intermediate tables the engine materialized, and how often a
   partitioned join consumed a side through its preserved partition
   layout instead of re-hashing every row. *)
let intermediates = Atomic.make 0
let partition_reuse_count = Atomic.make 0

let reset_counters () =
  Atomic.set intermediates 0;
  Atomic.set partition_reuse_count 0

let intermediate_tables () = Atomic.get intermediates
let partition_reuses () = Atomic.get partition_reuse_count
let vectorized_chunks () = 0

(* Both global counters also feed the ambient per-query flight record
   (serving telemetry), when one is installed on this domain. *)
let built_intermediate () =
  Atomic.incr intermediates;
  Qs_obs.Flight.on_intermediate_table ()

let note_partition_reuse () =
  Atomic.incr partition_reuse_count;
  Qs_obs.Flight.on_partition_reuse ()

let check_deadline = function
  | Some d when Timer.now () > d -> raise Timeout
  | _ -> ()

(* Deadline and cancellation share the same polling points: [tick]
   raises [Cancel.Cancelled] or [Timeout] at batch boundaries, so a
   served query unwinds within one batch of either signal. *)
let tick deadline cancel () =
  Cancel.check cancel;
  check_deadline deadline

(* Deadline checks are amortized over batches of rows. *)
let batch = 16384

let table_slot : Table.t Scratch.slot = Scratch.slot ()

let filters_key filters =
  String.concat " & " (List.sort compare (List.map Expr.to_string filters))

(* --- selection vectors -------------------------------------------------- *)

(* Selection vectors: a filter over a chunk produces the strictly
   increasing array of surviving row ordinals instead of a materialized
   row copy. *)
let filter_ordinals n keep =
  let out = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if keep i then begin
      out.(!k) <- i;
      incr k
    end
  done;
  Array.sub out 0 !k

(* Selection vector of one chunk under a non-empty conjunction, each
   row evaluated with [Expr.eval]. *)
let chunk_selvec ?deadline ?cancel schema filters rows =
  let tick = tick deadline cancel in
  filter_ordinals (Array.length rows) (fun i ->
      if i mod batch = 0 then tick ();
      List.for_all (Expr.eval schema rows.(i)) filters)

(* Materializing per-chunk filter: gather the survivors into a dense
   chunk, or share the input chunk when every row survives. *)
let filter_chunk ?deadline ?cancel schema filters rows =
  let sel = chunk_selvec ?deadline ?cancel schema filters rows in
  if Array.length sel = Array.length rows then rows
  else Array.map (fun i -> rows.(i)) sel

(* Chunked scan+filter. With [pool], chunks are filtered in parallel;
   Pool.map returns per-chunk outputs in chunk order, so the surviving
   rows come back in exactly the sequential scan's row order. *)
let filter_table ?deadline ?cancel ?pool (tbl : Table.t) filters =
  match filters with
  | [] -> tbl
  | filters ->
      let schema = tbl.Table.schema in
      let nc = Table.n_chunks tbl in
      let job chunk = filter_chunk ?deadline ?cancel schema filters chunk in
      let chunks =
        match pool with
        | Some pool when Pool.size pool > 1 && nc > 1 ->
            Pool.map pool
              (fun ci -> job (Table.chunk tbl ci))
              (List.init nc Fun.id)
        | _ ->
            (* sequential scan through the chunk walker, so spilled
               inputs prefetch upcoming chunks while this one filters *)
            let out = ref [] in
            Table.iter_chunks (fun _ chunk -> out := job chunk :: !out) tbl;
            List.rev !out
      in
      built_intermediate ();
      Table.of_chunks ~name:tbl.Table.name ~schema chunks

let filter_input ?deadline ?cancel ?pool (input : Fragment.input) =
  let tbl = input.Fragment.table in
  match input.Fragment.filters with
  | [] -> tbl
  | filters ->
      (* tables are immutable, so the filtered result is cached on the
         input record — re-optimization re-scans the same inputs many
         times. The cache key carries the predicate list: an input
         re-planned with different pushed-down filters must not reuse
         rows filtered under the old ones. A cancelled scan unwinds out
         of [find_or_add] before publishing, leaving the slot empty —
         the next query refilters from scratch. *)
      Scratch.find_or_add input.Fragment.scratch table_slot
        ("filtered:" ^ filters_key filters)
        (fun () -> filter_table ?deadline ?cancel ?pool tbl filters)

(* Join-key extraction: positions of the equi-join columns on each side,
   plus the residual predicates evaluated on the concatenated row. *)
let split_join_preds (lschema : Schema.t) preds =
  let is_left (c : Expr.colref) = Schema.mem lschema ~rel:c.Expr.rel ~name:c.Expr.name in
  List.partition_map
    (fun p ->
      match Expr.join_sides p with
      | Some (a, b) when is_left a -> Either.Left (a, b)
      | Some (a, b) when is_left b -> Either.Left (b, a)
      | _ -> Either.Right p)
    preds

let key_positions schema cols =
  List.map (fun (c : Expr.colref) -> Schema.find_exn schema ~rel:c.Expr.rel ~name:c.Expr.name) cols

let key_of_row row positions = List.map (fun p -> row.(p)) positions

let has_null = List.exists Value.is_null

(* Partitioned parallel hash join: both sides are split by key hash into
   one bucket per pool slot; every bucket is then an independent
   build+probe pair. Rows of one key land in one partition, so the union
   of the partition outputs is exactly the sequential join's multiset
   (null keys never join and are dropped during partitioning, as in the
   sequential path). Table order is restored within each partition so
   per-key match order — and thus the output multiset — is deterministic
   regardless of which domain runs which bucket. *)
let partitioned_hash_join ?deadline ?cancel ~limit ~pool ~(build : Table.t)
    ~(probe : Table.t) preds =
  let tick = tick deadline cancel in
  let out_schema = Schema.concat probe.Table.schema build.Table.schema in
  let build_cols, residual = split_join_preds build.Table.schema preds in
  let bpos = key_positions build.Table.schema (List.map fst build_cols) in
  let ppos = key_positions probe.Table.schema (List.map snd build_cols) in
  let k = Pool.size pool in
  let partition tbl pos =
    let parts = Array.make k [] in
    Table.iteri
      (fun i row ->
        if i mod batch = 0 then tick ();
        let key = key_of_row row pos in
        if not (has_null key) then begin
          let p = Hashtbl.hash key mod k in
          parts.(p) <- row :: parts.(p)
        end)
      tbl;
    Array.map List.rev parts
  in
  let bparts = partition build bpos in
  let pparts = partition probe ppos in
  let emitted = Atomic.make 0 in
  let run_part pi =
    let index : (Value.t list, Value.t array list) Hashtbl.t =
      Hashtbl.create (max 16 (List.length bparts.(pi)))
    in
    List.iteri
      (fun i row ->
        if i mod batch = 0 then tick ();
        let key = key_of_row row bpos in
        Hashtbl.replace index key
          (row :: Option.value (Hashtbl.find_opt index key) ~default:[]))
      bparts.(pi);
    let out = ref [] in
    List.iteri
      (fun i prow ->
        if i mod batch = 0 then tick ();
        let key = key_of_row prow ppos in
        match Hashtbl.find_opt index key with
        | None -> ()
        | Some matches ->
            List.iter
              (fun brow ->
                let n = 1 + Atomic.fetch_and_add emitted 1 in
                if n mod batch = 0 then tick ();
                let row = Array.append prow brow in
                if List.for_all (Expr.eval out_schema row) residual then begin
                  out := row :: !out;
                  if n > limit then raise Timeout
                end)
              matches)
      pparts.(pi);
    List.rev !out
  in
  let parts = Pool.map pool run_part (List.init k Fun.id) in
  built_intermediate ();
  Table.create ~name:"join" ~schema:out_schema
    (Array.concat (List.map Array.of_list parts))

let hash_join ?deadline ?cancel ?(limit = max_int) ?pool ~(build : Table.t)
    ~(probe : Table.t) preds =
  match pool with
  | Some pool when Pool.size pool > 1 ->
      partitioned_hash_join ?deadline ?cancel ~limit ~pool ~build ~probe preds
  | _ ->
  let tick = tick deadline cancel in
  let out_schema = Schema.concat probe.Table.schema build.Table.schema in
  (* orient keys wrt the build side *)
  let build_cols, residual = split_join_preds build.Table.schema preds in
  let bpos = key_positions build.Table.schema (List.map fst build_cols) in
  let ppos = key_positions probe.Table.schema (List.map snd build_cols) in
  let index : (Value.t list, Value.t array list) Hashtbl.t =
    Hashtbl.create (max 16 (Table.n_rows build))
  in
  Table.iteri
    (fun i row ->
      if i mod batch = 0 then tick ();
      let k = key_of_row row bpos in
      if not (has_null k) then
        Hashtbl.replace index k (row :: Option.value (Hashtbl.find_opt index k) ~default:[]))
    build;
  let out = ref [] in
  let emitted = ref 0 in
  Table.iteri
    (fun i prow ->
      if i mod batch = 0 then tick ();
      let k = key_of_row prow ppos in
      if not (has_null k) then
        match Hashtbl.find_opt index k with
        | None -> ()
        | Some matches ->
            List.iter
              (fun brow ->
                incr emitted;
                if !emitted mod batch = 0 then tick ();
                let row = Array.append prow brow in
                if List.for_all (Expr.eval out_schema row) residual then begin
                  out := row :: !out;
                  if !emitted > limit then raise Timeout
                end)
              matches)
    probe;
  built_intermediate ();
  Table.create ~name:"join" ~schema:out_schema (Array.of_list (List.rev !out))

let hash_join_count ?deadline ?cancel ~(build : Table.t) ~(probe : Table.t)
    preds =
  let tick = tick deadline cancel in
  let out_schema = Schema.concat probe.Table.schema build.Table.schema in
  let build_cols, residual = split_join_preds build.Table.schema preds in
  let bpos = key_positions build.Table.schema (List.map fst build_cols) in
  let ppos = key_positions probe.Table.schema (List.map snd build_cols) in
  let index : (Value.t list, Value.t array list) Hashtbl.t =
    Hashtbl.create (max 16 (Table.n_rows build))
  in
  Table.iteri
    (fun i row ->
      if i mod batch = 0 then tick ();
      let k = key_of_row row bpos in
      if not (has_null k) then
        Hashtbl.replace index k (row :: Option.value (Hashtbl.find_opt index k) ~default:[]))
    build;
  (* pre-count build groups so the residual-free case never walks pairs *)
  let counts : (Value.t list, int) Hashtbl.t = Hashtbl.create (Hashtbl.length index) in
  Hashtbl.iter (fun k rows -> Hashtbl.replace counts k (List.length rows)) index;
  let total = ref 0 in
  let steps = ref 0 in
  Table.iteri
    (fun i prow ->
      if i mod batch = 0 then tick ();
      let k = key_of_row prow ppos in
      if not (has_null k) then
        if residual = [] then
          total := !total + Option.value (Hashtbl.find_opt counts k) ~default:0
        else
          match Hashtbl.find_opt index k with
          | None -> ()
          | Some matches ->
              List.iter
                (fun brow ->
                  incr steps;
                  if !steps mod batch = 0 then tick ();
                  let row = Array.append prow brow in
                  if List.for_all (Expr.eval out_schema row) residual then incr total)
                matches)
    probe;
  !total

let index_nl_join ?deadline ?cancel ?(limit = max_int) ?matched_rows
    ~(outer : Table.t) ~(inner_input : Fragment.input) ~(index : Index.t)
    ~(outer_key : Expr.colref) preds =
  let tick = tick deadline cancel in
  let inner_tbl = inner_input.Fragment.table in
  let out_schema = Schema.concat outer.Table.schema inner_tbl.Table.schema in
  let okpos =
    Schema.find_exn outer.Table.schema ~rel:outer_key.Expr.rel ~name:outer_key.Expr.name
  in
  (* Residual predicates: everything except the indexed equality is checked
     after the lookup, as are the inner input's filters. *)
  let inner_schema = inner_tbl.Table.schema in
  let out = ref [] in
  let probes = ref 0 in
  let matched = ref 0 in
  Table.iter
    (fun orow ->
      incr probes;
      if !probes mod 1024 = 0 then tick ();
      let key = orow.(okpos) in
      if not (Value.is_null key) then
        List.iter
          (fun rid ->
            let irow = Table.row inner_tbl rid in
            if List.for_all (Expr.eval inner_schema irow) inner_input.Fragment.filters
            then begin
              incr matched;
              let row = Array.append orow irow in
              if List.for_all (Expr.eval out_schema row) preds then begin
                out := row :: !out;
                if !matched > limit then raise Timeout
              end
            end)
          (Index.lookup index key))
    outer;
  Option.iter (fun r -> r := !matched) matched_rows;
  built_intermediate ();
  Table.create ~name:"join" ~schema:out_schema (Array.of_list (List.rev !out))

let nl_join ?deadline ?cancel ?(limit = max_int) ~(outer : Table.t)
    ~(inner : Table.t) preds =
  let tick = tick deadline cancel in
  let out_schema = Schema.concat outer.Table.schema inner.Table.schema in
  let out = ref [] in
  let steps = ref 0 in
  let kept = ref 0 in
  Table.iter
    (fun orow ->
      Table.iter
        (fun irow ->
          incr steps;
          if !steps mod batch = 0 then tick ();
          let row = Array.append orow irow in
          if List.for_all (Expr.eval out_schema row) preds then begin
            out := row :: !out;
            incr kept;
            if !kept > limit then raise Timeout
          end)
        inner)
    outer;
  built_intermediate ();
  Table.create ~name:"join" ~schema:out_schema (Array.of_list (List.rev !out))

(* Span bridging: the label of the operator span emitted per executed
   plan node. Exactly one arm per [Physical] operator constructor —
   tools/check.sh lints that none is missing (stats-completeness,
   extended to spans). *)
let span_label (p : Physical.t) =
  match p.Physical.node with
  | Physical.Scan i -> "scan:" ^ i.Fragment.id
  | Physical.Join { method_ = Physical.Hash; _ } -> "hash-join"
  | Physical.Join { method_ = Physical.Index_nl; _ } -> "index-nl-join"
  | Physical.Join { method_ = Physical.Nl; _ } -> "nl-join"

(* The original fully-materializing engine: every operator output is a
   whole table. Kept as the reference implementation (the pipelined
   engine below must produce the same multiset — test_differential) and
   as the only engine able to fill a per-operator [trace], which needs
   materialized outputs for byte accounting. *)
let run_materializing ?deadline ?cancel ~row_limit ?pool ?trace ?spans plan =
  let stats : stats = Hashtbl.create 16 in
  (* Tracing is the only consumer of wall-clock / byte figures; keep the
     untraced path free of clock reads and byte-size walks. *)
  let timed = trace <> None || spans <> None in
  let now () = if timed then Timer.now () else 0.0 in
  let children (p : Physical.t) =
    match p.Physical.node with
    | Physical.Scan _ -> []
    | Physical.Join j -> [ j.Physical.left.Physical.id; j.Physical.right.Physical.id ]
  in
  let operator_span (p : Physical.t) ~t0 ~dur ~rows =
    Span.add spans Span.Operator (span_label p) ~start:t0 ~dur
      ~args:
        [
          ("node", string_of_int p.Physical.id);
          ("est_rows", Printf.sprintf "%.0f" p.Physical.est_rows);
          ("actual_rows", string_of_int rows);
        ]
  in
  let record ?(scanned = 0) ?(built = 0) ?(probed = 0) (p : Physical.t) ~t0 result =
    let rows = Table.n_rows result in
    Hashtbl.replace stats p.Physical.id rows;
    let elapsed = if timed then Timer.elapsed ~since:t0 else 0.0 in
    (match trace with
    | None -> ()
    | Some tr ->
        let n = Trace.node tr p.Physical.id in
        n.Trace.est_rows <- p.Physical.est_rows;
        n.Trace.actual_rows <- rows;
        n.Trace.elapsed <- elapsed;
        n.Trace.output_bytes <- Table.byte_size result;
        n.Trace.rows_scanned <- scanned;
        n.Trace.rows_built <- built;
        n.Trace.rows_probed <- probed;
        n.Trace.children <- children p);
    if spans <> None then operator_span p ~t0 ~dur:elapsed ~rows
  in
  let rec go (p : Physical.t) =
    let t0 = now () in
    match p.Physical.node with
    | Physical.Scan input ->
        let result = filter_input ?deadline ?cancel ?pool input in
        record p ~t0 ~scanned:(Table.n_rows input.Fragment.table) result;
        result
    | Physical.Join j -> (
        match j.Physical.method_ with
        | Physical.Hash ->
            let build = go j.Physical.left in
            let probe = go j.Physical.right in
            let result =
              hash_join ?deadline ?cancel ~limit:row_limit ?pool ~build ~probe
                j.Physical.preds
            in
            record p ~t0 ~built:(Table.n_rows build) ~probed:(Table.n_rows probe)
              result;
            result
        | Physical.Index_nl ->
            let outer = go j.Physical.left in
            let inner_input =
              match j.Physical.right.Physical.node with
              | Physical.Scan i -> i
              | _ -> invalid_arg "Executor.run: index NL inner must be a scan"
            in
            let index, outer_key, inner_key =
              match j.Physical.index with
              | Some x -> x
              | None -> invalid_arg "Executor.run: index NL without index"
            in
            (* The indexed equality is enforced by the lookup itself;
               everything else is checked per matched row. *)
            let indexed = Expr.eq (Expr.Col outer_key) (Expr.Col inner_key) in
            let residual =
              List.filter (fun pr -> not (Expr.equal_pred pr indexed)) j.Physical.preds
            in
            let matched = ref 0 in
            let result =
              index_nl_join ?deadline ?cancel ~limit:row_limit
                ~matched_rows:matched ~outer ~inner_input ~index ~outer_key
                residual
            in
            (* The inner scan is consumed through the index, never via [go];
               record it explicitly so every node id of the plan is present
               in the stats — its "output" is the rows surviving the index
               lookups plus the input's own filters. *)
            let inner = j.Physical.right in
            Hashtbl.replace stats inner.Physical.id !matched;
            (match trace with
            | None -> ()
            | Some tr ->
                let n = Trace.node tr inner.Physical.id in
                n.Trace.est_rows <- inner.Physical.est_rows;
                n.Trace.actual_rows <- !matched;
                n.Trace.rows_scanned <-
                  Table.n_rows inner_input.Fragment.table);
            if spans <> None then
              (* zero duration: the inner side's work happens inside the
                 index lookups and is part of the join span *)
              operator_span inner ~t0:(now ()) ~dur:0.0 ~rows:!matched;
            record p ~t0 ~probed:(Table.n_rows outer) result;
            result
        | Physical.Nl ->
            let outer = go j.Physical.left in
            let inner = go j.Physical.right in
            let result =
              nl_join ?deadline ?cancel ~limit:row_limit ~outer ~inner
                j.Physical.preds
            in
            record p ~t0 ~probed:(Table.n_rows outer) result;
            result)
  in
  let out = go plan in
  (out, stats)

(* ---------------------------------------------------------------------- *)
(* Morsel-driven pipelined engine                                          *)
(* ---------------------------------------------------------------------- *)

(* A morsel: one chunk plus a selection vector of the ordinals that
   survived the fused filters. [m_sel = None] is the dense vector —
   ordinals [0 .. n_rows-1] exactly; a full selvec is normalized to
   [None] at the morsel boundary, so consumers may assume a [Some]
   vector is a strict subset. Empty morsels are never emitted. Passing
   (chunk, selvec) pairs instead of copied row arrays is what lets
   scan→filter→probe run without materializing anything between fused
   operators. *)
type morsel = { m_chunk : Value.t array array; m_sel : int array option }

let morsel_of ~chunk ~sel =
  match sel with
  | Some s when Array.length s = Array.length chunk ->
      { m_chunk = chunk; m_sel = None }
  | _ -> { m_chunk = chunk; m_sel = sel }

let morsel_count m =
  match m.m_sel with
  | Some s -> Array.length s
  | None -> Array.length m.m_chunk

(* visit the surviving ordinals in order *)
let morsel_ordinals m f =
  match m.m_sel with
  | None ->
      for i = 0 to Array.length m.m_chunk - 1 do
        f i
      done
  | Some s -> Array.iter f s

(* ordinal-indexed row fetch *)
let morsel_fetch m =
  let rows = m.m_chunk in
  fun i -> rows.(i)

(* ordinal-indexed single-column accessor, for join keys *)
let morsel_col m p =
  let rows = m.m_chunk in
  fun i -> rows.(i).(p)

(* dense array of the surviving rows (the chunk itself when the morsel
   is dense) *)
let morsel_rows m =
  match m.m_sel with
  | None -> m.m_chunk
  | Some s ->
      let rows = m.m_chunk in
      Array.map (fun i -> rows.(i)) s

(* A stream of chunk-sized morsels. [ps_iter] drives the whole operator
   subtree synchronously: each morsel handed to the consumer is
   non-empty and, when [ps_parts] is set, tagged with the partition its
   rows hash into (tag [-1] = untagged). A morsel sourced from a
   spilled table is exactly one pinned buffer-pool frame, released
   before the next is pinned, so a pipeline touches O(1) frames no
   matter how large its inputs are. *)
type pstream = {
  ps_schema : Schema.t;
  ps_parts : ((string * string) list list * int) option;
      (* value-equivalent partition keys (ordered (rel, name) pairs)
         and modulus when every emitted morsel is tagged *)
  ps_iter : (int -> morsel -> unit) -> unit;
}

let colref_pair (c : Expr.colref) = (c.Expr.rel, c.Expr.name)

(* split one partition's row buffer into default-sized chunks so
   downstream morsels stay bounded *)
let chunk_up rows =
  let cr = Table.default_chunk_rows () in
  let n = Array.length rows in
  if n = 0 then []
  else if n <= cr then [ rows ]
  else
    List.init
      ((n + cr - 1) / cr)
      (fun ci -> Array.sub rows (ci * cr) (min cr (n - ci * cr)))

let run_pipelined ?deadline ?cancel ~row_limit ?pool ?spans plan =
  let stats : stats = Hashtbl.create 16 in
  (* every node id present even when nothing streams through it *)
  List.iter
    (fun (n : Physical.t) -> Hashtbl.replace stats n.Physical.id 0)
    (Physical.nodes plan);
  let tick = tick deadline cancel in
  let limit = row_limit in
  let bump (p : Physical.t) n =
    Hashtbl.replace stats p.Physical.id
      (n + Option.value (Hashtbl.find_opt stats p.Physical.id) ~default:0)
  in
  let bid (p : Physical.t) = string_of_int p.Physical.id in
  let emit_chunks p emit tag out =
    match out with
    | [] -> ()
    | l ->
        let rows = Array.of_list (List.rev l) in
        bump p (Array.length rows);
        (* operator outputs are freshly assembled rows: a dense
           row-major morsel *)
        emit tag { m_chunk = rows; m_sel = None }
  in
  let rec stream (p : Physical.t) : pstream =
    match p.Physical.node with
    | Physical.Scan input ->
        (* fused scan+filter: the selection runs inside the pinned chunk
           walk and produces a selection vector over the chunk — no row
           copy, no intermediate table. The deadline / cancel poll sits at the
           morsel boundary, so a cancellation unwinds before the next
           frame is pinned. *)
        let tbl = input.Fragment.table in
        let schema = tbl.Table.schema in
        let filters = input.Fragment.filters in
        let pt = Table.partitioning tbl in
        {
          ps_schema = schema;
          ps_parts =
            Option.map
              (fun (q : Table.partitioning) -> (q.Table.part_keys, q.Table.parts))
              pt;
          ps_iter =
            (fun emit ->
              Table.iter_chunks
                (fun ci chunk ->
                  tick ();
                  let sel =
                    if filters = [] then None
                    else
                      Some (chunk_selvec ?deadline ?cancel schema filters chunk)
                  in
                  match sel with
                  | Some [||] -> ()
                  | _ ->
                      let m = morsel_of ~chunk ~sel in
                      bump p (morsel_count m);
                      let tag =
                        match pt with Some q -> q.Table.tags.(ci) | None -> -1
                      in
                      emit tag m)
                tbl);
        }
    | Physical.Join j -> (
        match j.Physical.method_ with
        | Physical.Hash -> (
            let bstream = stream j.Physical.left in
            let prstream = stream j.Physical.right in
            let out_schema = Schema.concat prstream.ps_schema bstream.ps_schema in
            let build_cols, residual =
              split_join_preds bstream.ps_schema j.Physical.preds
            in
            let bpos = key_positions bstream.ps_schema (List.map fst build_cols) in
            let ppos = key_positions prstream.ps_schema (List.map snd build_cols) in
            match pool with
            | Some pl when Pool.size pl > 1 ->
                (* Partitioned parallel join. Both sides are barriers
                   here (the probe work is distributed by partition),
                   but the output streams per-partition chunk batches,
                   tagged so a downstream join — possibly in a later
                   QuerySplit step, via a preserved temp layout — can
                   group them by tag instead of re-hashing. *)
                let k = Pool.size pl in
                let bkey = List.map (fun (c, _) -> colref_pair c) build_cols in
                let pkey = List.map (fun (_, c) -> colref_pair c) build_cols in
                (* a producer's layout is reusable when it was hashed by
                   this join's key (any of the producer's equivalent
                   keys) with the same modulus; decided up front so the
                   output can advertise the inherited keys too *)
                let reusable (s : pstream) key =
                  match s.ps_parts with
                  | Some (keys, kk) when kk = k && List.mem key keys ->
                      Some keys
                  | _ -> None
                in
                let breuse = reusable bstream bkey
                and preuse = reusable prstream pkey in
                let collect (s : pstream) pos reuse =
                  let parts = Array.make k [] in
                  (match reuse with
                  | Some _ ->
                      (* the producer already partitioned by this exact
                         key and modulus: group chunks by tag. Tagged
                         rows joined on this key upstream, so none has
                         a null key — dropping nulls is a no-op. *)
                      note_partition_reuse ();
                      s.ps_iter (fun tag m ->
                          parts.(tag) <-
                            Array.fold_left
                              (fun acc r -> r :: acc)
                              parts.(tag) (morsel_rows m))
                  | None ->
                      s.ps_iter (fun _ m ->
                          let kcols = List.map (morsel_col m) pos in
                          let fetch = morsel_fetch m in
                          morsel_ordinals m (fun i ->
                              let key = List.map (fun g -> g i) kcols in
                              if not (has_null key) then begin
                                let pi = Hashtbl.hash key mod k in
                                parts.(pi) <- fetch i :: parts.(pi)
                              end)));
                  Array.map List.rev parts
                in
                (* output rows hold equal values on the probe and build
                   key columns, so both keys describe the layout; a
                   reused producer's other equivalent keys still hash to
                   the same tags and survive into the concatenated rows *)
                let out_keys =
                  List.sort_uniq compare
                    ([ pkey; bkey ]
                    @ Option.value preuse ~default:[]
                    @ Option.value breuse ~default:[])
                in
                {
                  ps_schema = out_schema;
                  ps_parts = Some (out_keys, k);
                  ps_iter =
                    (fun emit ->
                      let bparts =
                        Span.span spans Span.Breaker ("partition-build:" ^ bid p)
                          (fun () -> collect bstream bpos breuse)
                      in
                      let pparts =
                        Span.span spans Span.Breaker ("partition-probe:" ^ bid p)
                          (fun () -> collect prstream ppos preuse)
                      in
                      let emitted = Atomic.make 0 in
                      let run_part pi =
                        let index : (Value.t list, Value.t array list) Hashtbl.t =
                          Hashtbl.create (max 16 (List.length bparts.(pi)))
                        in
                        List.iteri
                          (fun i row ->
                            if i mod batch = 0 then tick ();
                            let key = key_of_row row bpos in
                            Hashtbl.replace index key
                              (row
                              :: Option.value (Hashtbl.find_opt index key)
                                   ~default:[]))
                          bparts.(pi);
                        let out = ref [] in
                        List.iteri
                          (fun i prow ->
                            if i mod batch = 0 then tick ();
                            let key = key_of_row prow ppos in
                            match Hashtbl.find_opt index key with
                            | None -> ()
                            | Some matches ->
                                List.iter
                                  (fun brow ->
                                    let n = 1 + Atomic.fetch_and_add emitted 1 in
                                    if n mod batch = 0 then tick ();
                                    let row = Array.append prow brow in
                                    if List.for_all (Expr.eval out_schema row) residual
                                    then begin
                                      out := row :: !out;
                                      if n > limit then raise Timeout
                                    end)
                                  matches)
                          pparts.(pi);
                        List.rev !out
                      in
                      let parts_out = Pool.map pl run_part (List.init k Fun.id) in
                      List.iteri
                        (fun pi rows ->
                          List.iter
                            (fun chunk ->
                              tick ();
                              bump p (Array.length chunk);
                              emit pi { m_chunk = chunk; m_sel = None })
                            (chunk_up (Array.of_list rows)))
                        parts_out);
                }
            | _ ->
                (* sequential: the build side is the pipeline breaker,
                   the probe side streams morsel by morsel *)
                {
                  ps_schema = out_schema;
                  ps_parts = None;
                  ps_iter =
                    (fun emit ->
                      let index : (Value.t list, Value.t array list) Hashtbl.t =
                        Hashtbl.create 1024
                      in
                      Span.span spans Span.Breaker ("hash-build:" ^ bid p)
                        (fun () ->
                          bstream.ps_iter (fun _ m ->
                              let kcols = List.map (morsel_col m) bpos in
                              let fetch = morsel_fetch m in
                              morsel_ordinals m (fun i ->
                                  let k = List.map (fun g -> g i) kcols in
                                  if not (has_null k) then
                                    Hashtbl.replace index k
                                      (fetch i
                                      :: Option.value (Hashtbl.find_opt index k)
                                           ~default:[]))));
                      (* [emitted] counts matched pairs before the
                         residual check, exactly like the materializing
                         join, so ?limit trips at the same row *)
                      let emitted = ref 0 in
                      prstream.ps_iter (fun _ m ->
                          let kcols = List.map (morsel_col m) ppos in
                          let fetch = morsel_fetch m in
                          let out = ref [] in
                          morsel_ordinals m (fun i ->
                              let k = List.map (fun g -> g i) kcols in
                              if not (has_null k) then
                                match Hashtbl.find_opt index k with
                                | None -> ()
                                | Some matches ->
                                    let prow = fetch i in
                                    List.iter
                                      (fun brow ->
                                        incr emitted;
                                        if !emitted mod batch = 0 then tick ();
                                        let row = Array.append prow brow in
                                        if
                                          List.for_all
                                            (Expr.eval out_schema row)
                                            residual
                                        then begin
                                          out := row :: !out;
                                          if !emitted > limit then raise Timeout
                                        end)
                                      matches);
                          emit_chunks p emit (-1) !out));
                })
        | Physical.Index_nl ->
            let ostream = stream j.Physical.left in
            let inner_node = j.Physical.right in
            let inner_input =
              match inner_node.Physical.node with
              | Physical.Scan i -> i
              | _ -> invalid_arg "Executor.run: index NL inner must be a scan"
            in
            let index, outer_key, inner_key =
              match j.Physical.index with
              | Some x -> x
              | None -> invalid_arg "Executor.run: index NL without index"
            in
            let indexed = Expr.eq (Expr.Col outer_key) (Expr.Col inner_key) in
            let residual =
              List.filter
                (fun pr -> not (Expr.equal_pred pr indexed))
                j.Physical.preds
            in
            let inner_tbl = inner_input.Fragment.table in
            let inner_schema = inner_tbl.Table.schema in
            let out_schema = Schema.concat ostream.ps_schema inner_schema in
            let okpos =
              Schema.find_exn ostream.ps_schema ~rel:outer_key.Expr.rel
                ~name:outer_key.Expr.name
            in
            {
              ps_schema = out_schema;
              ps_parts = None;
              ps_iter =
                (fun emit ->
                  let probes = ref 0 and matched = ref 0 in
                  ostream.ps_iter (fun _ m ->
                      let okey = morsel_col m okpos in
                      let fetch = morsel_fetch m in
                      let out = ref [] in
                      morsel_ordinals m (fun i ->
                          incr probes;
                          if !probes mod 1024 = 0 then tick ();
                          let key = okey i in
                          if not (Value.is_null key) then
                            List.iter
                              (fun rid ->
                                let irow = Table.row inner_tbl rid in
                                if
                                  List.for_all
                                    (Expr.eval inner_schema irow)
                                    inner_input.Fragment.filters
                                then begin
                                  incr matched;
                                  let row = Array.append (fetch i) irow in
                                  if
                                    List.for_all (Expr.eval out_schema row) residual
                                  then begin
                                    out := row :: !out;
                                    if !matched > limit then raise Timeout
                                  end
                                end)
                              (Index.lookup index key));
                      (* the inner side is consumed through the index;
                         its stats entry is the rows surviving the
                         lookups plus the input's own filters *)
                      Hashtbl.replace stats inner_node.Physical.id !matched;
                      emit_chunks p emit (-1) !out));
            }
        | Physical.Nl ->
            let ostream = stream j.Physical.left in
            let istream = stream j.Physical.right in
            let out_schema = Schema.concat ostream.ps_schema istream.ps_schema in
            {
              ps_schema = out_schema;
              ps_parts = None;
              ps_iter =
                (fun emit ->
                  (* the inner side is rescanned per outer row: buffer
                     it once (breaker), then stream the outer side *)
                  let buf = ref [] in
                  Span.span spans Span.Breaker ("nl-inner:" ^ bid p) (fun () ->
                      istream.ps_iter (fun _ m -> buf := morsel_rows m :: !buf));
                  let inner = Array.concat (List.rev !buf) in
                  let steps = ref 0 and kept = ref 0 in
                  ostream.ps_iter (fun _ m ->
                      let fetch = morsel_fetch m in
                      let out = ref [] in
                      morsel_ordinals m (fun oi ->
                          let orow = fetch oi in
                          Array.iter
                            (fun irow ->
                              incr steps;
                              if !steps mod batch = 0 then tick ();
                              let row = Array.append orow irow in
                              if
                                List.for_all
                                  (Expr.eval out_schema row)
                                  j.Physical.preds
                              then begin
                                out := row :: !out;
                                incr kept;
                                if !kept > limit then raise Timeout
                              end)
                            inner);
                      emit_chunks p emit (-1) !out));
            })
  in
  let root = stream plan in
  let t0 = if spans <> None then Timer.now () else 0.0 in
  let rev_tagged = ref [] in
  Span.span spans Span.Pipeline ("pipeline:" ^ span_label plan) (fun () ->
      root.ps_iter (fun tag m -> rev_tagged := (tag, morsel_rows m) :: !rev_tagged));
  let tagged = List.rev !rev_tagged in
  let name =
    match plan.Physical.node with
    | Physical.Scan i -> i.Fragment.table.Table.name
    | Physical.Join _ -> "join"
  in
  built_intermediate ();
  let out =
    match root.ps_parts with
    | Some (keys, k) when tagged <> [] && List.for_all (fun (t, _) -> t >= 0) tagged
      ->
        (* the sink keeps the per-partition layout, so a temp built
           from this result carries it into the next QuerySplit step *)
        Table.of_tagged_chunks ~name ~schema:root.ps_schema ~part_keys:keys
          ~parts:k tagged
    | _ -> Table.of_chunks ~name ~schema:root.ps_schema (List.map snd tagged)
  in
  if spans <> None then
    List.iter
      (fun (n : Physical.t) ->
        (* zero-duration markers: wall-clock lives in the pipeline /
           breaker spans, since fused operators have no time of their
           own *)
        Span.add spans Span.Operator (span_label n) ~start:t0 ~dur:0.0
          ~args:
            [
              ("node", string_of_int n.Physical.id);
              ("est_rows", Printf.sprintf "%.0f" n.Physical.est_rows);
              ("actual_rows", string_of_int (Hashtbl.find stats n.Physical.id));
            ])
      (Physical.nodes plan);
  (out, stats)

let run ?deadline ?cancel ?(row_limit = default_row_limit) ?pool ?trace ?spans
    ?mode plan =
  let mode = Option.value mode ~default:!default_mode in
  match (mode, trace, plan.Physical.node) with
  | Pipeline, None, Physical.Join _ ->
      run_pipelined ?deadline ?cancel ~row_limit ?pool ?spans plan
  | _ ->
      (* per-operator tracing needs materialized outputs for its byte /
         volume accounting, and a bare scan gains nothing from
         pipelining while losing the scratch filter cache — both run on
         the materializing engine *)
      run_materializing ?deadline ?cancel ~row_limit ?pool ?trace ?spans plan

let project ?name (tbl : Table.t) cols =
  match cols with
  | [] -> tbl
  | _ ->
      let seen = Hashtbl.create 8 in
      let cols =
        List.filter
          (fun (c : Expr.colref) ->
            if Hashtbl.mem seen (c.Expr.rel, c.Expr.name) then false
            else (
              Hashtbl.replace seen (c.Expr.rel, c.Expr.name) ();
              true))
          cols
      in
      let positions =
        List.map
          (fun (c : Expr.colref) ->
            Schema.find_exn tbl.Table.schema ~rel:c.Expr.rel ~name:c.Expr.name)
          cols
      in
      let schema = Array.of_list (List.map (fun p -> tbl.Table.schema.(p)) positions) in
      let chunks =
        List.init (Table.n_chunks tbl) (fun ci ->
            Array.map
              (fun row -> Array.of_list (List.map (fun p -> row.(p)) positions))
              (Table.chunk tbl ci))
      in
      (* chunk-for-chunk rewrite: the source's partition layout still
         holds if every key column survived the projection *)
      Table.copy_partitioning ~from:tbl
        (Table.of_chunks ~name:(Option.value name ~default:tbl.Table.name)
           ~schema chunks)

let cartesian ~name tables =
  match tables with
  | [] -> invalid_arg "Executor.cartesian: no tables"
  | [ t ] -> Table.with_name t name
  | first :: rest ->
      List.fold_left
        (fun acc t ->
          let schema = Schema.concat acc.Table.schema t.Table.schema in
          let rows = ref [] in
          Table.iter
            (fun a -> Table.iter (fun b -> rows := Array.append a b :: !rows) t)
            acc;
          Table.create ~name ~schema (Array.of_list (List.rev !rows)))
        first rest
