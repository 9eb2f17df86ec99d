(** Binary min-heap keyed by a float priority, with FIFO tie-breaking.

    This is the event queue of the discrete-event runners: events with equal
    timestamps are delivered in insertion order, which makes simulations
    deterministic. Priorities, sequence numbers and payloads live in
    parallel flat arrays (the priority array keeps its floats unboxed), and
    {!pop} returns the bare payload, so once the arrays have grown to
    capacity neither {!push} nor {!pop} allocates. Callers that need an
    entry's priority keep it in the payload. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> priority:float -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the entry with the smallest priority; among equal
    priorities, the one pushed first. Raises [Invalid_argument] on an empty
    heap. *)

val clear : 'a t -> unit
