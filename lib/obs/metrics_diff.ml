(* Comparing two metrics-JSON dumps (the [Metrics.json_of_many] shape):
   exactly on their deterministic counts (the runtest gate against the
   committed bench/baseline.json), or with relative thresholds for
   comparisons by hand.

   The repo renders its JSON by hand to stay dependency-free; the same
   discipline applies to parsing it back, so this module carries a small
   recursive-descent parser for the general JSON grammar (we only feed
   it our own dumps, but parsing the full language keeps it honest). *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

(* --- parser ---------------------------------------------------------- *)

type state = { src : string; mutable pos : int }

let error st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some x when x = c -> st.pos <- st.pos + 1
  | _ -> error st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected '%s'" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then error st "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    if c = '"' then Buffer.contents buf
    else if c = '\\' then begin
      (if st.pos >= String.length st.src then error st "unterminated escape";
       let e = st.src.[st.pos] in
       st.pos <- st.pos + 1;
       match e with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | 'r' -> Buffer.add_char buf '\r'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'u' ->
           if st.pos + 4 > String.length st.src then error st "bad \\u escape";
           let hex = String.sub st.src st.pos 4 in
           st.pos <- st.pos + 4;
           let code =
             try int_of_string ("0x" ^ hex)
             with _ -> error st "bad \\u escape"
           in
           (* our own dumps only escape control chars; anything in the
              BMP is re-encoded as UTF-8 *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
       | _ -> error st "bad escape");
      go ()
    end
    else begin
      Buffer.add_char buf c;
      go ()
    end
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < String.length st.src && is_num_char st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some v -> Num v
  | None -> error st (Printf.sprintf "bad number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else
        let rec members acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              Obj (List.rev ((k, v) :: acc))
          | _ -> error st "expected ',' or '}'"
        in
        members []
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              elements (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List (List.rev (v :: acc))
          | _ -> error st "expected ',' or ']'"
        in
        elements []
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st
  | None -> error st "unexpected end of input"

let parse text =
  let st = { src = text; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length text then Error "trailing garbage after JSON value"
      else Ok v
  | exception Parse_error msg -> Error msg

(* --- diffing --------------------------------------------------------- *)

type change = {
  strategy : string;
  metric : string;
  old_value : float;
  new_value : float;
}

type report = {
  threshold : float;
  regressions : change list;
  improvements : change list;
  missing : string list;
}

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let num = function Some (Num v) -> Some v | _ -> None

(* Higher-is-worse for everything we dump: counters count work/failures
   (timeouts, materializations, iterations) and histogram means measure
   time, bytes and Q-error. [queries] is workload size, not a cost —
   compared for equality so mismatched runs are flagged, not scored. *)
let neutral_counter name = name = "queries"

let relative_increase ~old_v ~new_v =
  if old_v <= 0.0 then if new_v > 0.0 then infinity else 0.0
  else (new_v -. old_v) /. old_v

let classify ~threshold ~strategy ~metric ~old_v ~new_v acc =
  let regressions, improvements = acc in
  let change = { strategy; metric; old_value = old_v; new_value = new_v } in
  let delta = relative_increase ~old_v ~new_v in
  if delta > threshold then (change :: regressions, improvements)
  else if delta < -.threshold then (regressions, change :: improvements)
  else acc

let diff ?(threshold = 0.2) ~old_ ~new_ () =
  let strategies = match old_ with Obj fields -> fields | _ -> [] in
  let missing = ref [] in
  let acc = ref ([], []) in
  List.iter
    (fun (strategy, old_entry) ->
      match member strategy new_ with
      | None -> missing := strategy :: !missing
      | Some new_entry ->
          (match (member "counters" old_entry, member "counters" new_entry) with
          | Some (Obj old_cs), Some new_cs ->
              List.iter
                (fun (name, v) ->
                  match (num (Some v), num (member name new_cs)) with
                  | Some old_v, Some new_v ->
                      if neutral_counter name then begin
                        if old_v <> new_v then
                          missing :=
                            Printf.sprintf "%s/counter:%s (workload size %g -> %g)"
                              strategy name old_v new_v
                            :: !missing
                      end
                      else
                        acc :=
                          classify ~threshold ~strategy
                            ~metric:("counter:" ^ name) ~old_v ~new_v !acc
                  | Some _, None ->
                      missing := Printf.sprintf "%s/counter:%s" strategy name :: !missing
                  | _ -> ())
                old_cs
          | _ -> ());
          (match (member "histograms" old_entry, member "histograms" new_entry) with
          | Some (Obj old_hs), Some new_hs ->
              List.iter
                (fun (name, summary) ->
                  match member name new_hs with
                  | None ->
                      missing := Printf.sprintf "%s/histogram:%s" strategy name :: !missing
                  | Some new_summary -> (
                      match
                        (num (member "mean" summary), num (member "mean" new_summary))
                      with
                      | Some old_v, Some new_v ->
                          acc :=
                            classify ~threshold ~strategy
                              ~metric:("histogram:" ^ name ^ " mean") ~old_v
                              ~new_v !acc
                      | _ -> ()))
                old_hs
          | _ -> ()))
    strategies;
  let regressions, improvements = !acc in
  {
    threshold;
    regressions = List.rev regressions;
    improvements = List.rev improvements;
    missing = List.rev !missing;
  }

(* --- exact comparison (the counter gate) ------------------------------- *)

type exact = { counters : int; histogram_counts : int; mismatches : string list }

let show = function None -> "absent" | Some v -> Printf.sprintf "%.17g" v

(* keys of [a] in order, then those only in [b] *)
let union a b =
  List.map fst a @ List.filter (fun k -> not (List.mem_assoc k a)) (List.map fst b)

(* Counters are deterministic for a fixed seed, and so is how many
   observations each histogram took; the observed values themselves are
   wall-clock, so they are never compared here. *)
let exact ~old_ ~new_ =
  let counters = ref 0 and histogram_counts = ref 0 in
  let fields = function Some (Obj fs) -> fs | _ -> [] in
  let olds = fields (Some old_) and news = fields (Some new_) in
  let same tally entry o n =
    List.filter_map
      (fun k ->
        let ov = List.assoc_opt k o and nv = List.assoc_opt k n in
        if ov = nv then (incr tally; None)
        else Some (Printf.sprintf "%s/%s %s→%s" entry k (show ov) (show nv)))
      (union o n)
  in
  let counter_values e =
    List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (num (Some v)))
      (fields (member "counters" e))
  and count_values e =
    List.filter_map
      (fun (k, h) -> Option.map (fun x -> (k ^ ".count", x)) (num (member "count" h)))
      (fields (member "histograms" e))
  in
  let presence e = if e = None then "absent" else "present" in
  let mismatches =
    List.concat_map
      (fun entry ->
        match (List.assoc_opt entry olds, List.assoc_opt entry news) with
        | Some o, Some n ->
            same counters entry (counter_values o) (counter_values n)
            @ same histogram_counts entry (count_values o) (count_values n)
        | o, n -> [ Printf.sprintf "%s %s→%s" entry (presence o) (presence n) ])
      (union olds news)
  in
  { counters = !counters; histogram_counts = !histogram_counts; mismatches }

let render_change c =
  let delta = relative_increase ~old_v:c.old_value ~new_v:c.new_value in
  Printf.sprintf "  %s %s: %g -> %g (%+.1f%%)" c.strategy c.metric c.old_value
    c.new_value (100.0 *. delta)

let render r =
  let buf = Buffer.create 256 in
  if r.regressions = [] && r.improvements = [] && r.missing = [] then
    Buffer.add_string buf
      (Printf.sprintf "no changes beyond %.0f%% threshold\n" (100.0 *. r.threshold))
  else begin
    if r.regressions <> [] then begin
      Buffer.add_string buf
        (Printf.sprintf "regressions (> %.0f%% worse):\n" (100.0 *. r.threshold));
      List.iter (fun c -> Buffer.add_string buf (render_change c ^ "\n")) r.regressions
    end;
    if r.improvements <> [] then begin
      Buffer.add_string buf
        (Printf.sprintf "improvements (> %.0f%% better):\n" (100.0 *. r.threshold));
      List.iter (fun c -> Buffer.add_string buf (render_change c ^ "\n")) r.improvements
    end;
    if r.missing <> [] then begin
      Buffer.add_string buf "missing or mismatched in new dump:\n";
      List.iter (fun m -> Buffer.add_string buf ("  " ^ m ^ "\n")) r.missing
    end
  end;
  Buffer.contents buf
