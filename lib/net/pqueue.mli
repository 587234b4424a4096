(** A monomorphic-priority binary min-heap used by the event engine.

    Priorities are [(int64 * int)] pairs compared lexicographically: the
    event timestamp plus an insertion sequence number, which makes the pop
    order of simultaneous events deterministic (FIFO). Pop order depends
    on the priorities alone.

    The heap itself holds only ints: each entry is its time, its seq and
    the index of the slot that holds its value, interleaved in one int
    array. A value is written into its slot once by {!push} and read
    once by {!pop_value}; sifting moves a hole through the int array, so
    no heap level runs the write barrier. Pushing allocates nothing once
    capacity is reached. A slot is emptied as its value is popped, so
    the heap never keeps a popped value reachable. Timestamps must fit a
    native 63-bit int (about 146 simulated years in nanoseconds); {!push}
    raises [Invalid_argument] beyond that. *)

type 'a t

(** [create ?capacity ()] with [capacity] (default 0) a pre-sizing hint:
    pushes up to it never resize. *)
val create : ?capacity:int -> unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int
val push : 'a t -> int64 -> int -> 'a -> unit

(** [pop_min q] removes and returns [(time, seq, value)] with the smallest
    priority, or [None] when empty. *)
val pop_min : 'a t -> (int64 * int * 'a) option

(** [min_time q] is the timestamp of the minimum entry as a native int,
    or [max_int] when the heap is empty. Allocation-free. *)
val min_time : 'a t -> int

(** [pop_value q] removes the minimum entry and returns its value alone;
    with {!min_time} it is the event engine's allocation-free pop (no
    option, tuple or boxed timestamp per event). Raises
    [Invalid_argument] when the heap is empty. *)
val pop_value : 'a t -> 'a
