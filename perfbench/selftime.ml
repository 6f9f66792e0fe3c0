(* Per-layer time from a span recording.

   A span's self time is its duration minus the union of the intervals
   its children cover (clipped to the span), never minus their summed
   durations: children may overlap each other. Annotation spans are left
   out of the tree entirely. They are added after the fact over time that
   other spans already cover ([reopt-step] overlaps its sibling
   [pipeline] spans, [serve] queue waits cover time before the task ran),
   or they are zero-length markers (pipelined [operator] spans, [dp-memo]
   consultations), so counting them would attribute the same time
   twice. *)

module Span = Qs_util.Span

let annotation (s : Span.span) =
  match s.Span.cat with
  | Span.Reopt_step | Span.Serve | Span.Dp_memo -> true
  | _ -> s.Span.dur <= 0.0

let stop (s : Span.span) = s.Span.start +. s.Span.dur

(* Total length of a set of intervals, overlaps counted once. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

type summary = {
  self : (Span.category * float) list;  (** self seconds per category *)
  busy : float;  (** summed duration of root spans, over every track *)
  count : Span.category -> int;  (** structural spans per category *)
  total : Span.category -> float;  (** summed durations, annotations too *)
}

let summarize spans =
  let structural = List.filter (fun s -> not (annotation s)) spans in
  let ids = Hashtbl.create 4096 in
  List.iter (fun (s : Span.span) -> Hashtbl.replace ids s.Span.id ()) structural;
  let children = Hashtbl.create 4096 in
  List.iter
    (fun (s : Span.span) -> Hashtbl.add children s.Span.parent s)
    structural;
  let self = Hashtbl.create 16 in
  let busy = ref 0.0 in
  List.iter
    (fun (s : Span.span) ->
      let lo = s.Span.start and hi = stop s in
      let covered =
        Hashtbl.find_all children s.Span.id
        |> List.filter_map (fun c ->
               let a = Float.max lo c.Span.start and b = Float.min hi (stop c) in
               if b > a then Some (a, b) else None)
        |> union_length
      in
      let prev = Option.value (Hashtbl.find_opt self s.Span.cat) ~default:0.0 in
      Hashtbl.replace self s.Span.cat (prev +. Float.max 0.0 (s.Span.dur -. covered));
      if not (Hashtbl.mem ids s.Span.parent) then busy := !busy +. s.Span.dur)
    structural;
  let count cat =
    List.length (List.filter (fun (s : Span.span) -> s.Span.cat = cat) structural)
  in
  let total cat =
    List.fold_left
      (fun a (s : Span.span) -> if s.Span.cat = cat then a +. s.Span.dur else a)
      0.0 spans
  in
  {
    self =
      List.map
        (fun c -> (c, Option.value (Hashtbl.find_opt self c) ~default:0.0))
        Span.all_categories;
    busy = !busy;
    count;
    total;
  }

let self_of summary cats =
  List.fold_left
    (fun a c -> a +. Option.value (List.assoc_opt c summary.self) ~default:0.0)
    0.0 cats
