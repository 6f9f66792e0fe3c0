(** On-disk chunk files for spilled tables.

    One write-once binary file per spilled table: a header plus one
    fixed-size frame per chunk, so faulting chunk [i] is a single
    seek + read at [header + i * frame_size]. Frames round-trip their
    rows exactly — floats through their IEEE bits — which keeps
    out-of-core result digests byte-identical to in-memory execution.

    Reads open and close the file per call: no persistent descriptors,
    so concurrent faults from several domains need no coordination here
    — residency and deduplication of reads live in {!Buffer_pool}. *)

type t

val write : dir:string -> name:string -> arity:int ->
  Value.t array array array -> t * int array
(** [write ~dir ~name ~arity chunks] spills the chunks (each a row
    array) to a fresh uniquely-named file under [dir] and returns the
    handle plus each chunk's logical byte size (the {!Value.byte_size}
    sum, computed during the serialization walk so {!Table.byte_size}
    never faults). Raises [Invalid_argument] on an
    empty chunk array or any zero-row chunk: a spilled frame must never
    be empty, or chunk faulting could map a row offset to a zero-length
    frame. *)

val read : t -> int -> Value.t array array
(** [read t i] faults frame [i]'s rows back in (open, seek, read,
    close). Safe to call concurrently from any domain. *)

val id : t -> int
(** Process-unique id, the buffer pool's cache key. *)

val path : t -> string

val n_frames : t -> int

val remove : t -> unit
(** Best-effort deletion of the backing file (spill dirs are scratch
    space; this is for tests that want eager cleanup). *)
