(* Workload set-up: data generation, query curation, index build and
   base-table ANALYZE, timed per phase, plus the reference digests every
   measured execution is checked against.

   The data and the query corpus come from a fixed seed, the way JOB and
   DSB are fixed benchmarks; the run's --seed drives only the traffic
   built on top of them (query order, arrivals, sessions). *)

module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Buffer_pool = Qs_storage.Buffer_pool
module Stats_registry = Qs_stats.Stats_registry
module Estimator = Qs_stats.Estimator
module Strategy = Qs_core.Strategy
module Driver = Qs_core.Driver
module Timer = Qs_util.Timer

let data_seed = 2023
let cinema_scale = 1.0
let cinema_queries = 40
let dsb_scale = 4.0
let dsb_frames = 32

type shape = Spj of Qs_query.Query.t | Tree of Qs_plan.Logical.t

type stmt = { name : string; shape : shape }

type spill = { dir : string; bp : Buffer_pool.t }

type t = {
  registry : Stats_registry.t;
  stmts : stmt array;
  phases : (string * float) list;  (** set-up seconds per phase *)
  spill : spill option;
}

let run strategy ctx stmt =
  match stmt.shape with
  | Spj q -> strategy.Strategy.run ctx q
  | Tree t -> Driver.run strategy ctx t

let timed phases name f =
  let r, dt = Timer.time f in
  phases := (name, dt) :: !phases;
  r

let finish phases ?spill catalog stmts =
  timed phases "storage.index_build_s" (fun () ->
      Catalog.build_indexes catalog Catalog.Pk_fk);
  let registry = Stats_registry.create catalog in
  timed phases "stats.analyze_base_s" (fun () ->
      List.iter
        (fun (t : Table.t) -> ignore (Stats_registry.stats registry t.Table.name))
        (Catalog.tables catalog));
  { registry; stmts = Array.of_list stmts; phases = List.rev !phases; spill }

(* JOB-like: Cinema at scale 1.0 with 40 curated non-empty queries. *)
let cinema () =
  let phases = ref [] in
  let catalog =
    timed phases "workload.generate_s" (fun () ->
        Qs_workload.Cinema.build ~scale:cinema_scale ~seed:data_seed ())
  in
  let queries =
    timed phases "workload.curate_s" (fun () ->
        Qs_workload.Cinema.queries catalog ~seed:(data_seed + 1) ~n:cinema_queries)
  in
  finish phases catalog
    (List.map (fun q -> { name = q.Qs_query.Query.name; shape = Spj q }) queries)

(* DSB's 37 non-SPJ trees at scale 4, every table (base and temp) spilled
   to chunk files under [dir] and read back through a [dsb_frames]-frame
   buffer pool whose prefetch reads run on [io]. Spill mode is
   process-wide: it stays on until [release]. *)
let dsb ~dir ~io =
  let bp = Buffer_pool.create ~capacity:dsb_frames () in
  Buffer_pool.set_io_pool bp (Some io);
  Table.set_spill (Some (dir, bp));
  let phases = ref [] in
  let catalog =
    timed phases "workload.generate_s" (fun () ->
        Qs_workload.Dsb.build ~scale:dsb_scale ~seed:data_seed ())
  in
  let trees =
    timed phases "workload.curate_s" (fun () ->
        Qs_workload.Dsb.nonspj_queries catalog ~seed:(data_seed + 1))
  in
  finish phases ~spill:{ dir; bp } catalog
    (List.map (fun t -> { name = Qs_plan.Logical.name t; shape = Tree t }) trees)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let release t =
  match t.spill with
  | Some s ->
      Table.set_spill None;
      remove_tree s.dir
  | None -> ()

(* Spill-directory footprint: file count and bytes. *)
let spill_usage t =
  match t.spill with
  | None -> (0, 0)
  | Some s ->
      Array.fold_left
        (fun (n, b) f ->
          (n + 1, b + (Unix.stat (Filename.concat s.dir f)).Unix.st_size))
        (0, 0) (Sys.readdir s.dir)

(* An order-independent checksum of a result, cheap enough to take on
   every timed execution. Like [Table.digest] it reads the columns in
   column-id order and floats in their printed form, so two plans that
   return the same multiset of rows get the same checksum. Unlike it, it
   builds no per-row strings and sorts nothing: the digest of a result of
   300k rows took up to 0.36 s and left its strings as garbage that the
   next timed execution paid to collect. Two sums of
   differently mixed 63-bit row hashes, with the row count and the
   column ids, make an accidental match unlikely. *)
let checksum (t : Table.t) =
  let cols =
    Array.to_list t.Table.schema
    |> List.mapi (fun i c -> (Qs_storage.Schema.column_id c, i))
    |> List.sort compare
  in
  let order = Array.of_list (List.map snd cols) in
  let value = function
    | Qs_storage.Value.Float _ as v -> Hashtbl.hash (Qs_storage.Value.to_string v)
    | v -> Hashtbl.hash v
  in
  let mix k h =
    let h = (h lxor (h lsr 29)) * k in
    h lxor (h lsr 32)
  in
  let s1 = ref 0 and s2 = ref 0 in
  Table.iter
    (fun row ->
      let h = Array.fold_left (fun h i -> (h * 1099511628211) + value row.(i)) 17 order in
      s1 := !s1 + mix 0x2545f4914f6cdd1d h;
      s2 := !s2 + mix 0x1b87359364c5d8e3 h)
    t;
  Printf.sprintf "%s|%d|%x|%x" (String.concat "," (List.map fst cols)) (Table.n_rows t) !s1 !s2

(* One reference per statement from its single-shot Default plan (plan
   once with the default estimator, execute, no re-optimization): [check]
   of its result. Any failure here is fatal: there would be nothing to
   check against. *)
let references t check =
  Array.map
    (fun stmt ->
      let ctx =
        Strategy.make_ctx ~deadline:(Some (Timer.now () +. 60.0)) t.registry
          Estimator.default
      in
      let o = run Qs_core.Static.default ctx stmt in
      if o.Strategy.timed_out then failwith ("reference timed out: " ^ stmt.name);
      check o.Strategy.result)
    t.stmts
