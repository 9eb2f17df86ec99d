(** Per-run instrumentation counters for the cost model.

    The paper charges CPU time per comparison (Table 1: 0.5 us). We count
    three kinds of unit work: value {e comparisons} (predicate operators,
    hash probes), attribute {e accesses} (each step of a path traversal,
    field merges), and GOID-table {e lookups} (federation dictionary
    probes). Executors convert {!units} into simulated CPU time.

    A meter is an explicit instance: each executor phase creates its own and
    reports a {!snapshot}, so concurrent queries never bleed counts into
    each other. (The previous design used process-global refs with
    [reset]/[delta]; that made attribution unreliable whenever queries
    shared an engine, and is gone.) *)

type snapshot = { comparisons : int; accesses : int; goid_lookups : int }

type t
(** A mutable counter instance. *)

val create : unit -> t

val zero : snapshot

val add_comparison : t -> unit

val add_comparisons : t -> int -> unit
(** Bulk form for columnar loops ({!Extent.eval_attr}): only snapshot
    totals are ever read, so charging [n] comparisons at once is
    indistinguishable from [n] unit ticks. *)

val add_accesses : t -> int -> unit
val add_goid_lookups : t -> int -> unit

val read : t -> snapshot

val add : snapshot -> snapshot -> snapshot
(** Pointwise sum, for aggregating phase snapshots. *)

val units : snapshot -> int
(** Total CPU unit-work in a snapshot: comparisons + accesses. GOID lookups
    are charged separately (Table 2's dictionary costs), so they are not
    included. *)
