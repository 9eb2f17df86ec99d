(** Query answers: certain results plus maybe results.

    Following Codd's maybe semantics as used by the paper, an answer lists
    the objects (identified by GOid) that definitely satisfy the query and,
    separately, those that might — i.e. whose predicate conjunction is
    Unknown because of missing data. Each row carries the projected target
    values; a value that is missing federation-wide projects as [Null]. *)

open Msdq_odb

type status = Certain | Maybe

type row = { goid : Oid.Goid.t; values : Value.t list; status : status }

type reason =
  | Fault of string
      (** degraded by an execution fault; carries a human-readable account
          of the lost round trip or failover chain *)
  | Deadline of { elapsed_us : float; budget_us : float }
      (** degraded by a latency budget: the query's outstanding assistant
          checks were abandoned when its elapsed time would have reached
          [elapsed_us] against a [budget_us] deadline *)

val reason_to_string : reason -> string
(** One-line rendering of the provenance, stable across runs. *)

type t

val make : targets:Path.t list -> row list -> t
(** Rows are sorted by GOid: rows already in ascending order are kept as
    they are after one pass, others are sorted. A duplicate GOid raises
    [Invalid_argument] (executors must merge per-entity results before
    building the answer). *)

val targets : t -> Path.t list

val rows : t -> row list

val certain : t -> row list

val maybe : t -> row list

val size : t -> int

val find : t -> Oid.Goid.t -> row option

val status_of : t -> Oid.Goid.t -> status option

val goids : t -> status -> Oid.Goid.Set.t

val degraded : t -> Oid.Goid.Set.t
(** Entities whose classification was degraded by execution faults: they are
    reported maybe (uncertified) although a fault-free execution might have
    certified or eliminated them. Empty for fault-free runs. *)

val demote : t -> goids:Oid.Goid.Set.t -> t
(** Fault degradation: every listed row that is certain becomes maybe, and
    every listed GOid present in the answer gains degraded provenance
    (see {!degraded}). GOids absent from the answer are ignored. *)

val annotate_degraded : t -> reasons:(Oid.Goid.t * reason) list -> t
(** Attach structured provenance to already-degraded entities — e.g. the
    failover chain that failed to answer a check ([Fault "check vs DB2
    dropped; failover DB3 dropped; no live replica"]) or the latency
    budget that abandoned it ([Deadline _]). Entities not in {!degraded},
    and entities that already carry a reason, are left untouched. *)

val degraded_reason : t -> Oid.Goid.t -> reason option
(** The provenance recorded by {!annotate_degraded}, if any. *)

val mark_cached : t -> goids:Oid.Goid.Set.t -> t
(** Cache provenance (workload engine): the listed entities were certified
    using at least one verdict served from the cross-query verdict cache
    rather than a fresh assistant round trip. Pure metadata — the rows,
    statuses and values are untouched, and {!same_statuses}/{!subsumes}
    ignore it — but {!pp} flags the rows, honouring the completeness
    contract of reporting which answers were served from cache. GOids
    absent from the answer are ignored. *)

val cached : t -> Oid.Goid.Set.t
(** Entities marked by {!mark_cached}. Empty unless a caching executor
    produced the answer. *)

val same_statuses : t -> t -> bool
(** Whether two answers classify exactly the same GOids as certain and as
    maybe (projected values are not compared). *)

val subsumes : strong:t -> weak:t -> bool
(** [subsumes ~strong ~weak]: the strong answer (more integrated knowledge,
    e.g. CA's) refines the weak one — every certain GOid of [weak] is
    certain in [strong], every GOid absent from [weak] is absent from
    [strong], and every maybe of [weak] is still present in [strong] (as
    certain or maybe). The localized strategies without deep certification
    produce answers that CA subsumes. *)

val pp : Format.formatter -> t -> unit

val equal_status : status -> status -> bool

val status_to_string : status -> string
