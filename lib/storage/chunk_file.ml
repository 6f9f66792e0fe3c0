(* On-disk chunk-file format for spilled tables. One write-once file per
   table: a fixed header followed by fixed-size frames, one frame per
   chunk, so a frame's offset is a multiplication away and faulting a
   chunk is a single seek + read.

     header  : magic "QSCF0003" | n_frames | frame_size | arity   (32 B)
     frame i : n_rows | used_bytes | payload,
               zero-padded to frame_size                          (16 B hdr)

   All integers are 8-byte big-endian unless noted. The payload is the
   chunk's tagged values in row-major order. Floats ship as their IEEE
   bits, so a reloaded chunk is value-for-value identical to the
   spilled one (digest parity).

   The frame size is computed from the largest serialized chunk (exact
   by construction: [ser_size] matches [put_value] byte for byte).

   Reads open/seek/read/close per fault: no persistent file descriptors
   means no fd-per-table exhaustion and nothing to guard across domains
   — concurrent faults of the same file are independent reads. *)

type t = {
  id : int;  (* process-unique, the buffer pool's cache key *)
  path : string;
  n_frames : int;
  frame_size : int;  (* bytes per frame, header included *)
  arity : int;
}

let magic = "QSCF0003"
let header_size = 32
let frame_header_size = 16
let next_id = Atomic.make 0

let id t = t.id
let path t = t.path
let n_frames t = t.n_frames

(* --- value serialization ----------------------------------------------- *)

let ser_size = function
  | Value.Null -> 1
  | Value.Bool _ -> 2
  | Value.Int _ | Value.Float _ -> 9
  | Value.Str s -> 5 + String.length s

let put_value buf v =
  match v with
  | Value.Null -> Buffer.add_char buf '\000'
  | Value.Bool b ->
      Buffer.add_char buf '\001';
      Buffer.add_char buf (if b then '\001' else '\000')
  | Value.Int i ->
      Buffer.add_char buf '\002';
      Buffer.add_int64_be buf (Int64.of_int i)
  | Value.Float f ->
      Buffer.add_char buf '\003';
      Buffer.add_int64_be buf (Int64.bits_of_float f)
  | Value.Str s ->
      Buffer.add_char buf '\004';
      Buffer.add_int32_be buf (Int32.of_int (String.length s));
      Buffer.add_string buf s

let corrupt path what =
  failwith (Printf.sprintf "Chunk_file %s: corrupt frame (%s)" path what)

let get_value path b pos =
  let tag = Bytes.get b !pos in
  incr pos;
  match tag with
  | '\000' -> Value.Null
  | '\001' ->
      let c = Bytes.get b !pos in
      incr pos;
      Value.Bool (c <> '\000')
  | '\002' ->
      let v = Bytes.get_int64_be b !pos in
      pos := !pos + 8;
      Value.Int (Int64.to_int v)
  | '\003' ->
      let v = Bytes.get_int64_be b !pos in
      pos := !pos + 8;
      Value.Float (Int64.float_of_bits v)
  | '\004' ->
      let len = Int32.to_int (Bytes.get_int32_be b !pos) in
      pos := !pos + 4;
      if len < 0 || !pos + len > Bytes.length b then corrupt path "string length";
      let s = Bytes.sub_string b !pos len in
      pos := !pos + len;
      Value.Str s
  | _ -> corrupt path "value tag"

(* --- writing ------------------------------------------------------------ *)

let sanitize name =
  let name = if String.length name > 40 then String.sub name 0 40 else name in
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_')
    name

let put_i64 oc v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int v);
  Out_channel.output_bytes oc b

let write ~dir ~name ~arity chunks =
  let n = Array.length chunks in
  if n = 0 then invalid_arg "Chunk_file.write: no chunks";
  (* pass 1: serialized + logical sizes; a zero-row frame would make the
     offset table ambiguous under faulting, so the writer rejects what
     Table construction should already have normalized away *)
  let logical = Array.make n 0 in
  let max_ser = ref 0 in
  Array.iteri
    (fun i rows ->
      if Array.length rows = 0 then
        invalid_arg
          (Printf.sprintf "Chunk_file.write %s: empty chunk %d" name i);
      let ser = ref 0 and bytes = ref 0 in
      Array.iter
        (Array.iter (fun v ->
             ser := !ser + ser_size v;
             bytes := !bytes + Value.byte_size v))
        rows;
      logical.(i) <- !bytes;
      if !ser > !max_ser then max_ser := !ser)
    chunks;
  let frame_size = frame_header_size + !max_ser in
  let id = Atomic.fetch_and_add next_id 1 in
  let path = Filename.concat dir (Printf.sprintf "t%06d-%s.qsc" id (sanitize name)) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc magic;
      put_i64 oc n;
      put_i64 oc frame_size;
      put_i64 oc arity;
      (* pass 2: serialize each chunk into its frame; seeking to the next
         frame start zero-extends, so short frames need no explicit pad *)
      let buf = Buffer.create (min !max_ser 65536) in
      Array.iteri
        (fun i rows ->
          Out_channel.seek oc (Int64.of_int (header_size + (i * frame_size)));
          Buffer.clear buf;
          Array.iter (Array.iter (put_value buf)) rows;
          put_i64 oc (Array.length rows);
          put_i64 oc (Buffer.length buf);
          Out_channel.output_string oc (Buffer.contents buf))
        chunks);
  ({ id; path; n_frames = n; frame_size; arity }, logical)

(* --- reading ------------------------------------------------------------ *)

let get_i64 b off = Int64.to_int (Bytes.get_int64_be b off)

let read t i =
  if i < 0 || i >= t.n_frames then
    invalid_arg (Printf.sprintf "Chunk_file.read %s: frame %d of %d" t.path i t.n_frames);
  In_channel.with_open_bin t.path (fun ic ->
      In_channel.seek ic (Int64.of_int (header_size + (i * t.frame_size)));
      let hdr = Bytes.create frame_header_size in
      (match In_channel.really_input ic hdr 0 frame_header_size with
      | Some () -> ()
      | None -> corrupt t.path "truncated frame header");
      let n_rows = get_i64 hdr 0 in
      let used = get_i64 hdr 8 in
      if n_rows <= 0 then corrupt t.path "zero-row frame";
      (* every value serializes to at least one byte *)
      if used < t.arity || used > t.frame_size - frame_header_size then
        corrupt t.path "frame payload size";
      let payload = Bytes.create used in
      (match In_channel.really_input ic payload 0 used with
      | Some () -> ()
      | None -> corrupt t.path "truncated frame payload");
      let pos = ref 0 in
      let rows =
        Array.init n_rows (fun _ ->
            Array.init t.arity (fun _ -> get_value t.path payload pos))
      in
      if !pos <> used then corrupt t.path "frame payload trailer";
      rows)

let remove t = try Sys.remove t.path with Sys_error _ -> ()
