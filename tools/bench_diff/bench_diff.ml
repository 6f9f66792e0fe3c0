(* bench_diff: compare two metrics-JSON dumps written by
   [bench --metrics-out].

     dune exec tools/bench_diff/bench_diff.exe -- old.json new.json
     dune exec tools/bench_diff/bench_diff.exe -- --threshold 0.1 a.json b.json
     dune exec tools/bench_diff/bench_diff.exe -- --counters-only a.json b.json

   [--counters-only] is the exact counter gate (Metrics_diff.exact): every
   entry, counter and histogram observation count must be present in
   both dumps with the same value. [dune runtest] runs it against the
   committed bench/baseline.json (see bench/dune). Without it, the dumps
   are compared with a relative threshold, histogram means included.

   Exit status: 0 = identical counts / within threshold, 1 = mismatches,
   regressions, metrics gone missing or workload size changed, 2 = usage
   or parse error. *)

module Metrics_diff = Qs_obs.Metrics_diff

let usage = "usage: bench_diff [--threshold REL] [--counters-only] OLD.json NEW.json"

let fail_usage msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

let load path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> fail_usage ("bench_diff: " ^ msg)
  in
  match Metrics_diff.parse text with
  | Ok json -> json
  | Error msg -> fail_usage (Printf.sprintf "bench_diff: %s: %s" path msg)

let () =
  let threshold = ref 0.2 in
  let counters = ref false in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0.0 -> threshold := f
        | _ -> fail_usage ("bench_diff: bad threshold " ^ v));
        parse_args rest
    | "--threshold" :: [] -> fail_usage "bench_diff: --threshold needs a value"
    | "--counters-only" :: rest ->
        counters := true;
        parse_args rest
    | f :: rest ->
        files := !files @ [ f ];
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  match !files with
  | [ old_path; new_path ] ->
      let old_ = load old_path and new_ = load new_path in
      if !counters then begin
        let r = Metrics_diff.exact ~old_ ~new_ in
        List.iter (fun m -> print_endline ("  " ^ m)) r.Metrics_diff.mismatches;
        if r.Metrics_diff.mismatches <> [] then begin
          Printf.printf "%s differs from %s in %d counts\n" new_path old_path
            (List.length r.Metrics_diff.mismatches);
          exit 1
        end;
        Printf.printf "%d counters and %d histogram counts identical\n"
          r.Metrics_diff.counters r.Metrics_diff.histogram_counts
      end
      else
        let report = Metrics_diff.diff ~threshold:!threshold ~old_ ~new_ () in
        print_string (Metrics_diff.render report);
        if report.Metrics_diff.regressions <> [] || report.Metrics_diff.missing <> []
        then exit 1
  | _ -> fail_usage "bench_diff: expected exactly two files"
