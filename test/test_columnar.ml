(* Cases that once covered the columnar chunk layout, kept against the
   row layout that replaced it: the tricky values its column frames had
   to round-trip (NaN, -0.0, min_int/max_int, NUL-in-string, NULL, long
   strings) through row frames; selection-vector edge cases (empty,
   full, narrowing, ragged last chunk) and NaN / -0.0 comparison
   semantics through the row filter path; and filter results against a
   row-at-a-time reference, sequentially and on a pool. *)

module Value = Qs_storage.Value
module Schema = Qs_storage.Schema
module Table = Qs_storage.Table
module Chunk_file = Qs_storage.Chunk_file
module Expr = Qs_query.Expr
module Fragment = Qs_stats.Fragment
module Executor = Qs_exec.Executor
module Pool = Qs_util.Pool

let temp_dir () =
  let f = Filename.temp_file "qs_frames" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let rm_rf dir =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

(* NaN-safe, -0.0-aware cell comparison: Value.compare equates NaN with
   itself and -0.0 with 0.0, which is exactly the engine's semantics *)
let check_cells what expect got =
  Alcotest.(check int) (what ^ " rows") (Array.length expect) (Array.length got);
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c v ->
          if Value.compare v got.(r).(c) <> 0 then
            Alcotest.failf "%s: row %d col %d: %s <> %s" what r c
              (Value.to_string v)
              (Value.to_string got.(r).(c)))
        row)
    expect

(* arity 4: ints with min_int/max_int and NULLs, floats with NaN, both
   zero signs and denormals, strings with NULs and repetitions, bools *)
let tricky_rows =
  [|
    [| Value.Int min_int; Value.Float Float.nan; Value.Str "a\x00b"; Value.Bool true |];
    [| Value.Int max_int; Value.Float (-0.0); Value.Str ""; Value.Bool false |];
    [| Value.Null; Value.Float 0.0; Value.Str "snake"; Value.Null |];
    [| Value.Int 0; Value.Null; Value.Str (String.make 300 'x'); Value.Bool true |];
    [| Value.Int (-7); Value.Float infinity; Value.Str "snake"; Value.Bool false |];
    [| Value.Int 42; Value.Float neg_infinity; Value.Null; Value.Bool true |];
    [| Value.Null; Value.Float 1e-300; Value.Str "a\x00b"; Value.Null |];
  |]

let logical_size rows =
  Array.fold_left
    (fun a row -> Array.fold_left (fun a v -> a + Value.byte_size v) a row)
    0 rows

let test_chunk_file_roundtrip () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* the tricky chunk whole, then a one-row frame of its widest row *)
  let chunks = [| tricky_rows; [| tricky_rows.(3) |] |] in
  let file, logical = Chunk_file.write ~dir ~name:"tricky" ~arity:4 chunks in
  Alcotest.(check int) "frames" 2 (Chunk_file.n_frames file);
  (* read out of order: frames are position-independent *)
  check_cells "frame 1" chunks.(1) (Chunk_file.read file 1);
  check_cells "frame 0" chunks.(0) (Chunk_file.read file 0);
  Array.iteri
    (fun i chunk ->
      Alcotest.(check int)
        (Printf.sprintf "logical bytes %d" i)
        (logical_size chunk) logical.(i))
    chunks;
  (* -0.0 keeps its sign bit through the file *)
  match (Chunk_file.read file 0).(1).(1) with
  | Value.Float f -> Alcotest.(check bool) "-0.0 sign" true (Float.sign_bit f)
  | v -> Alcotest.failf "expected a float, got %s" (Value.to_string v)

(* --- selection vectors through the row filter path --------------------- *)

let ids tbl =
  List.rev (Table.fold (fun acc row -> Value.as_int row.(0) :: acc) [] tbl)

let int_table ?(chunk_rows = 4) n =
  Table.create ~chunk_rows ~name:"t"
    ~schema:(Schema.make "t" [ ("id", Value.TInt); ("v", Value.TInt) ])
    (Array.init n (fun i -> [| Value.Int i; Value.Int i |]))

let test_selvec () =
  (* 10 rows, chunk_rows 4 => ragged last chunk of 2 *)
  let t = int_table 10 in
  let v = Expr.col "t" "v" in
  let run preds = ids (Executor.filter_table t preds) in
  (* nothing survives: no chunk is kept, not even an empty one *)
  let none = Executor.filter_table t [ Expr.Cmp (Expr.Lt, v, Expr.vint 0) ] in
  Alcotest.(check int) "none: rows" 0 (Table.n_rows none);
  Alcotest.(check int) "none: no chunks" 0 (Table.n_chunks none);
  (* everything survives: the input chunks are shared, ragged one too *)
  let all = Executor.filter_table t [ Expr.Cmp (Expr.Lt, v, Expr.vint 100) ] in
  Alcotest.(check (list int)) "full" (List.init 10 Fun.id) (ids all);
  Alcotest.(check int) "full: chunk count" (Table.n_chunks t) (Table.n_chunks all);
  for ci = 0 to Table.n_chunks t - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "full: chunk %d shared" ci)
      true
      (Table.chunk all ci == Table.chunk t ci)
  done;
  (* a conjunction narrows the survivors and keeps row order *)
  Alcotest.(check (list int)) "narrow" [ 4; 5; 7 ]
    (run
       [
         Expr.Cmp (Expr.Ge, v, Expr.vint 4);
         Expr.Cmp (Expr.Ne, Expr.Arith (Expr.Add, v, Expr.vint 1), Expr.vint 7);
         Expr.Cmp (Expr.Lt, v, Expr.vint 8);
       ]);
  (* a partial selection in the ragged chunk gathers only its survivors *)
  Alcotest.(check (list int)) "ragged partial" [ 9 ]
    (run [ Expr.Cmp (Expr.Gt, v, Expr.vint 8) ]);
  (* int column vs float constant compares numerically *)
  Alcotest.(check (list int)) "int vs float" [ 0; 1; 2 ]
    (run [ Expr.Cmp (Expr.Lt, v, Expr.vfloat 2.5) ]);
  (* a NULL constant never matches *)
  Alcotest.(check (list int)) "null const" []
    (run [ Expr.Cmp (Expr.Eq, v, Expr.Const Value.Null) ]);
  (* IS NULL / IS NOT NULL pick complementary ordinals *)
  let with_nulls =
    Table.create ~chunk_rows:3 ~name:"t"
      ~schema:(Schema.make "t" [ ("id", Value.TInt); ("v", Value.TInt) ])
      (Array.init 7 (fun i ->
           [| Value.Int i; (if i mod 3 = 1 then Value.Null else Value.Int i) |]))
  in
  Alcotest.(check (list int)) "is null" [ 1; 4 ]
    (ids (Executor.filter_table with_nulls [ Expr.Is_null v ]));
  Alcotest.(check (list int)) "not null" [ 0; 2; 3; 5; 6 ]
    (ids (Executor.filter_table with_nulls [ Expr.Not_null v ]));
  (* NULLs never pass a comparison *)
  Alcotest.(check (list int)) "nulls excluded" [ 0; 2; 3; 5; 6 ]
    (ids
       (Executor.filter_table with_nulls
          [ Expr.Cmp (Expr.Le, v, Expr.vint max_int) ]))

let test_float_semantics () =
  let fl =
    Table.create ~name:"f"
      ~schema:(Schema.make "f" [ ("id", Value.TInt); ("x", Value.TFloat) ])
      (Array.mapi
         (fun i x -> [| Value.Int i; Value.Float x |])
         [| Float.nan; -0.0; 0.0; 1.0 |])
  in
  let cmp op k =
    ids (Executor.filter_table fl [ Expr.Cmp (op, Expr.col "f" "x", Expr.vfloat k) ])
  in
  (* Value.compare semantics: NaN sorts below every float and equals
     itself; -0.0 = 0.0 *)
  List.iter
    (fun (what, expect, got) -> Alcotest.(check (list int)) what expect got)
    [
      ("lt 0", [ 0 ], cmp Expr.Lt 0.0);
      ("le 0", [ 0; 1; 2 ], cmp Expr.Le 0.0);
      ("ge 0", [ 1; 2; 3 ], cmp Expr.Ge 0.0);
      ("eq 0 matches -0", [ 1; 2 ], cmp Expr.Eq 0.0);
      ("ne 0", [ 0; 3 ], cmp Expr.Ne 0.0);
      ("eq nan", [ 0 ], cmp Expr.Eq Float.nan);
      ("ne nan", [ 1; 2; 3 ], cmp Expr.Ne Float.nan);
      ("lt nan", [], cmp Expr.Lt Float.nan);
      ("le nan", [ 0 ], cmp Expr.Le Float.nan);
      ("gt nan", [ 1; 2; 3 ], cmp Expr.Gt Float.nan);
      ("ge nan", [ 0; 1; 2; 3 ], cmp Expr.Ge Float.nan);
    ]

(* --- filter results against a row-at-a-time reference ------------------ *)

let wide_schema =
  Schema.make "t"
    [
      ("id", Value.TInt); ("amount", Value.TInt); ("price", Value.TFloat);
      ("cat", Value.TStr); ("flag", Value.TBool);
    ]

(* 30 rows, chunk_rows 8 => ragged last chunk of 6 *)
let wide_rows =
  Array.init 30 (fun i ->
      let h = (i * 2654435761) land 0x3fffffff in
      [|
        Value.Int i;
        (if i mod 7 = 3 then Value.Null else Value.Int (h mod 100));
        (if i mod 11 = 5 then Value.Float Float.nan
         else if i mod 11 = 6 then Value.Float (-0.0)
         else Value.Float (float_of_int (h mod 40) /. 4.0));
        Value.Str [| "a"; "b"; "a\x00b"; "long-tail-category" |].(h mod 4);
        Value.Bool (i mod 2 = 0);
      |])

let filter_cases =
  [
    ("selective int", [ Expr.Cmp (Expr.Lt, Expr.col "t" "amount", Expr.vint 50) ]);
    ("none survive", [ Expr.Cmp (Expr.Lt, Expr.col "t" "amount", Expr.vint (-1)) ]);
    ("all survive", [ Expr.Not_null (Expr.col "t" "id") ]);
    ("between", [ Expr.Between (Expr.col "t" "amount", Value.Int 10, Value.Int 60) ]);
    ("is null", [ Expr.Is_null (Expr.col "t" "amount") ]);
    ("float vs nan", [ Expr.Cmp (Expr.Eq, Expr.col "t" "price", Expr.vfloat Float.nan) ]);
    ("float le zero", [ Expr.Cmp (Expr.Le, Expr.col "t" "price", Expr.vfloat 0.0) ]);
    ("string eq", [ Expr.Cmp (Expr.Eq, Expr.col "t" "cat", Expr.vstr "a\x00b") ]);
    ("string ne", [ Expr.Cmp (Expr.Ne, Expr.col "t" "cat", Expr.vstr "a") ]);
    ( "conjunction with arithmetic",
      [
        Expr.Cmp (Expr.Gt, Expr.col "t" "amount", Expr.vint 5);
        Expr.Cmp
          ( Expr.Lt,
            Expr.Arith (Expr.Add, Expr.col "t" "amount", Expr.vint 1),
            Expr.vint 80 );
      ] );
    ( "flipped const-col",
      [ Expr.Cmp (Expr.Gt, Expr.vint 50, Expr.col "t" "amount") ] );
  ]

let input_of table filters =
  {
    Fragment.id = table.Table.name;
    table;
    provides = [ table.Table.name ];
    filters;
    stats = Qs_stats.Table_stats.rowcount_only (Table.n_rows table);
    is_temp = false;
    base_table = Some table.Table.name;
    provenance = table.Table.name;
    stats_epoch = 0;
    memo = Hashtbl.create 1;
    scratch = Qs_util.Scratch.create ();
  }

let test_filter_parity () =
  let tbl = Table.create ~chunk_rows:8 ~name:"t" ~schema:wide_schema wide_rows in
  Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (what, preds) ->
          let expect =
            Array.to_list wide_rows
            |> List.filter (fun r -> List.for_all (Expr.eval wide_schema r) preds)
            |> List.map (fun r -> Value.as_int r.(0))
          in
          Alcotest.(check (list int)) what expect
            (ids (Executor.filter_table tbl preds));
          Alcotest.(check (list int)) (what ^ " (pool)") expect
            (ids (Executor.filter_table ~pool tbl preds));
          Alcotest.(check (list int)) (what ^ " (input)") expect
            (ids (Executor.filter_input ~pool (input_of tbl preds))))
        filter_cases);
  (* the all-survivors filter returns the table unchanged *)
  Alcotest.(check string)
    "full filter = identity" (Table.digest tbl)
    (Table.digest
       (Executor.filter_table tbl [ Expr.Not_null (Expr.col "t" "id") ]))

let suite =
  [
    Alcotest.test_case "chunk file round-trips columnar frames" `Quick
      test_chunk_file_roundtrip;
    Alcotest.test_case "selection-vector kernels" `Quick test_selvec;
    Alcotest.test_case "float kernel semantics (NaN, -0.0)" `Quick
      test_float_semantics;
    Alcotest.test_case "filter parity across layouts" `Quick test_filter_parity;
  ]
