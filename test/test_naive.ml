(* The reference executor and the weighted counter behind the oracle. *)

module Value = Qs_storage.Value
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Catalog = Qs_storage.Catalog
module Fragment = Qs_stats.Fragment
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Strategy = Qs_core.Strategy
module Naive = Qs_exec.Naive
module Rng = Qs_util.Rng

let frag_of ctx q = Strategy.fragment_of_query ctx q

let test_count_empty_result () =
  let _, ctx = Fixtures.shop_ctx () in
  let q =
    Query.make ~name:"none"
      [ { Query.alias = "c"; table = "customers" } ]
      [ Expr.Cmp (Expr.Eq, Expr.col "c" "city", Expr.vstr "nowhere") ]
  in
  Alcotest.(check int) "zero" 0 (Naive.count (frag_of ctx q))

let test_count_single_table () =
  let _, ctx = Fixtures.shop_ctx () in
  let q = Query.make ~name:"all" [ { Query.alias = "c"; table = "customers" } ] [] in
  Alcotest.(check int) "120 customers" 120 (Naive.count (frag_of ctx q))

let test_count_cartesian_product () =
  let _, ctx = Fixtures.shop_ctx () in
  let q =
    Query.make ~name:"cross"
      [
        { Query.alias = "c"; table = "customers" };
        { Query.alias = "p"; table = "products" };
      ]
      []
  in
  Alcotest.(check int) "120 * 80" (120 * 80) (Naive.count (frag_of ctx q))

let test_count_weighted_equals_materialized () =
  let _, ctx = Fixtures.shop_ctx ~n_orders:700 () in
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let q = Fixtures.random_shop_query rng in
    let frag = frag_of ctx q in
    let full = { frag with Fragment.output = [] } in
    let expected = Table.n_rows (Naive.rows full) in
    Alcotest.(check int) ("count for " ^ q.Query.name) expected (Naive.count full)
  done

let test_count_with_cache_consistent () =
  let _, ctx = Fixtures.shop_ctx ~n_orders:500 () in
  let cache = Naive.make_cache () in
  let rng = Rng.create 9 in
  for _ = 1 to 15 do
    let q = Fixtures.random_shop_query rng in
    let frag = frag_of ctx q in
    let cold = Naive.count frag in
    let warm1 = Naive.count ~cache frag in
    let warm2 = Naive.count ~cache frag in
    Alcotest.(check int) "cache = no cache" cold warm1;
    Alcotest.(check int) "cache stable" cold warm2
  done

let test_cache_shared_across_subsets () =
  (* counting a larger fragment after its sub-fragment must still be
     exact (the cache stores intermediates keyed by logical identity) *)
  let _, ctx = Fixtures.shop_ctx ~n_orders:500 () in
  let cache = Naive.make_cache () in
  let q = Fixtures.shop_query () in
  let frag = frag_of ctx q in
  let sub =
    Fragment.restrict frag
      [ Fragment.find_input frag "o"; Fragment.find_input frag "p" ]
  in
  let c_sub = Naive.count ~cache sub in
  let c_full = Naive.count ~cache frag in
  Alcotest.(check int) "sub unchanged on recount" c_sub (Naive.count ~cache sub);
  Alcotest.(check int) "full exact" (Naive.count frag) c_full

let weighted_join_fixture () =
  (* two tiny tables with null keys and duplicates to stress weighting *)
  let a =
    Table.of_rows ~name:"wa"
      ~schema:(Schema.make "wa" [ ("k", Value.TInt); ("pad", Value.TStr) ])
      [
        [| Value.Int 1; Value.Str "x" |];
        [| Value.Int 1; Value.Str "y" |];
        [| Value.Int 2; Value.Str "z" |];
        [| Value.Null; Value.Str "n" |];
      ]
  in
  let b =
    Table.of_rows ~name:"wb"
      ~schema:(Schema.make "wb" [ ("k", Value.TInt) ])
      [ [| Value.Int 1 |]; [| Value.Int 1 |]; [| Value.Int 1 |]; [| Value.Null |] ]
  in
  let cat = Catalog.create () in
  Catalog.add_table cat a;
  Catalog.add_table cat b;
  let registry = Qs_stats.Stats_registry.create cat in
  let q =
    Query.make ~name:"w"
      [ { Query.alias = "a"; table = "wa" }; { Query.alias = "b"; table = "wb" } ]
      [ Expr.eq (Expr.col "a" "k") (Expr.col "b" "k") ]
  in
  Fragment.of_query registry q

let test_weighted_multiplicities_and_nulls () =
  (* k=1: 2 rows on the left x 3 on the right = 6; nulls never join *)
  Alcotest.(check int) "6 rows" 6 (Naive.count (weighted_join_fixture ()))

let test_count_matches_executor_on_cinema () =
  let cat = Lazy.force Fixtures.cinema in
  let registry = Qs_stats.Stats_registry.create cat in
  let ctx = Strategy.make_ctx registry Qs_stats.Estimator.default in
  List.iteri
    (fun i q ->
      if i < 5 then begin
        let frag = frag_of ctx q in
        let full = { frag with Fragment.output = [] } in
        Alcotest.(check int) q.Query.name
          (Table.n_rows (Naive.rows full))
          (Naive.count full)
      end)
    (Lazy.force Fixtures.cinema_queries)

let test_deadline_respected () =
  let _, ctx = Fixtures.shop_ctx ~n_orders:5000 () in
  let q = Fixtures.shop_query () in
  let frag = frag_of ctx q in
  (* fresh inputs so the filter cache cannot satisfy it instantly *)
  Alcotest.(check bool) "times out" true
    (try
       ignore (Naive.count ~deadline:(Qs_util.Timer.now () -. 1.0) frag);
       false
     with Qs_exec.Executor.Timeout -> true)

(* The oracle filters its inputs itself: an engine filter result cached
   on the input's scratch — here a deliberately wrong one — must not leak
   into the ground truth. *)
let test_independent_of_engine_filter_cache () =
  let _, ctx = Fixtures.shop_ctx () in
  let q =
    Query.make ~name:"oslo"
      [ { Query.alias = "c"; table = "customers" } ]
      [ Expr.Cmp (Expr.Eq, Expr.col "c" "city", Expr.vstr "oslo") ]
  in
  let frag = frag_of ctx q in
  let truth = Naive.count (frag_of ctx q) in
  let input = List.hd frag.Fragment.inputs in
  (* same scratch and filters, different table: the engine caches the
     wrong table's filter result under this input's filter key *)
  let wrong =
    Table.of_rows ~name:"customers" ~schema:input.Fragment.table.Table.schema
      [ [| Value.Int 1; Value.Str "oslo"; Value.Bool true |] ]
  in
  ignore (Qs_exec.Executor.filter_input { input with Fragment.table = wrong });
  Alcotest.(check bool) "poisoned slot is served to the engine" true
    (Table.n_rows (Qs_exec.Executor.filter_input input) = 1);
  Alcotest.(check bool) "oslo has many customers" true (truth > 1);
  Alcotest.(check int) "count" truth (Naive.count frag);
  Alcotest.(check int) "rows" truth (Table.n_rows (Naive.rows frag))

let suite =
  [
    Alcotest.test_case "count empty" `Quick test_count_empty_result;
    Alcotest.test_case "count single table" `Quick test_count_single_table;
    Alcotest.test_case "count cartesian" `Quick test_count_cartesian_product;
    Alcotest.test_case "weighted = materialized" `Quick test_count_weighted_equals_materialized;
    Alcotest.test_case "cache consistent" `Quick test_count_with_cache_consistent;
    Alcotest.test_case "cache across subsets" `Quick test_cache_shared_across_subsets;
    Alcotest.test_case "multiplicities & nulls" `Quick test_weighted_multiplicities_and_nulls;
    Alcotest.test_case "cinema counts" `Quick test_count_matches_executor_on_cinema;
    Alcotest.test_case "deadline" `Quick test_deadline_respected;
    Alcotest.test_case "independent of engine filter cache" `Quick
      test_independent_of_engine_filter_cache;
  ]
