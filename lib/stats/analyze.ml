module Table = Qs_storage.Table

let default_sample = 8192

(* Evenly-strided sample, built one column at a time; deterministic so
   stats are reproducible. Sampling is per chunk with a proportional
   quota — the telescoping [stop*sample/n - start*sample/n] quotas sum
   exactly to [sample], and a single-chunk table degenerates to one
   global stride. *)
let sample_columns (tbl : Table.t) sample =
  let n = Table.n_rows tbl in
  let arity = Array.length tbl.Table.schema in
  let quota_before start = start * sample / n in
  let picks ci len =
    if n <= sample then Array.init len Fun.id
    else
      let start = Table.chunk_offset tbl ci in
      let q = quota_before (start + len) - quota_before start in
      if q <= 0 then [||]
      else
        let stride = float_of_int len /. float_of_int q in
        Array.init q (fun i -> int_of_float (float_of_int i *. stride))
  in
  let parts = Array.init arity (fun _ -> ref []) in
  let sample_n = ref 0 in
  Table.iter_chunks
    (fun ci rows ->
      let len = Array.length rows in
      let sel = picks ci len in
      if Array.length sel > 0 then begin
        sample_n := !sample_n + Array.length sel;
        for j = 0 to arity - 1 do
          parts.(j) := Array.map (fun i -> rows.(i).(j)) sel :: !(parts.(j))
        done
      end)
    tbl;
  (!sample_n, Array.map (fun p -> Array.concat (List.rev !p)) parts)

(* Scale a sampled distinct count up to the full table: values seen once in
   a small sample suggest many unseen distincts (a crude stand-in for the
   Haas–Stokes estimator PostgreSQL uses). *)
let extrapolate_distinct ~sampled ~sample_n ~total_n d =
  if sampled >= total_n || sample_n = 0 then d
  else begin
    let ratio = float_of_int d /. float_of_int sample_n in
    if ratio > 0.5 then
      (* nearly-unique column: assume proportionality *)
      int_of_float (ratio *. float_of_int total_n)
    else d
  end

let of_table ?n_mcv ?n_buckets ?(sample = default_sample) (tbl : Table.t) =
  let total_n = Table.n_rows tbl in
  let sample_n, columns = sample_columns tbl sample in
  let cols =
    Array.to_list tbl.schema
    |> List.mapi (fun i col ->
           let cs = Column_stats.of_values ?n_mcv ?n_buckets columns.(i) in
           let cs =
             {
               cs with
               Column_stats.n_values = total_n;
               n_distinct =
                 extrapolate_distinct ~sampled:sample_n ~sample_n ~total_n
                   cs.Column_stats.n_distinct;
             }
           in
           (col, cs))
  in
  Table_stats.make ~n_rows:total_n cols

let rowcount_of_table tbl = Table_stats.rowcount_only (Table.n_rows tbl)
