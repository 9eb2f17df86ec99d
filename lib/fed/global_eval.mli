(** Predicate evaluation over the materialized global view.

    This is phase P of the centralized approach: predicates run against
    integrated objects, so a value contributed by {e any} isomeric object
    can decide them. [Gnull] fields — positions where no constituent had a
    value — yield [Blocked], producing maybe results. *)

open Msdq_odb

type block = { at : Materialize.gobject; rest : Path.t }
(** Evaluation stopped at [at], whose merged value for [List.hd rest] is
    missing federation-wide. *)

type outcome = Sat | Viol | Blocked of block

type fetched =
  | Found of Value.t
  | Found_set of Value.t list
      (** a multi-valued attribute (see [Materialize.Gset]); predicates use
          existential semantics over the set *)
  | Missing of block

val fetch :
  ?meter:Meter.t -> Materialize.t -> Materialize.gobject -> Path.t -> fetched
(** Walks a path over global objects, following [Gref]s, charging one access
    per step to [meter]. Raises [Invalid_argument] if a referenced class was
    not materialized, and [Value.Type_error] if the path traverses a
    primitive attribute. *)

val eval :
  ?meter:Meter.t -> Materialize.t -> Materialize.gobject -> Predicate.t -> outcome
(** Uses {!Predicate.compare_op}, so comparisons are charged to the same
    per-run meter as the path accesses. *)

val eval_conjunction :
  ?meter:Meter.t -> Materialize.t -> Materialize.gobject -> Predicate.t list -> Truth.t
(** Kleene conjunction of the predicate outcomes. *)

val project :
  ?meter:Meter.t -> Materialize.t -> Materialize.gobject -> Path.t -> Value.t
(** Target projection: the fetched value, or [Value.Null] when blocked; a
    multi-valued attribute projects its first value. *)

val truth_of_outcome : outcome -> Truth.t

(** {2 Paths resolved to global slots}

    A query's per-entity loop resolves each path once and walks entities
    by slot, where {!fetch} probes a string-keyed table per step. The
    resolved walk returns what {!fetch} returns on the same entity and
    path, charges the same accesses and raises the same exceptions. *)

type resolved

val resolve : Materialize.t -> root:string -> Path.t -> resolved
(** Resolves [path] from entities of global class [root]; never fails. *)

val fetch_resolved :
  ?meter:Meter.t -> resolved -> Materialize.gobject -> fetched
(** [fetch_resolved (resolve view ~root path) gobj] is
    [fetch view gobj path]. *)

val eval_resolved :
  ?meter:Meter.t -> resolved -> Materialize.gobject -> Predicate.t -> outcome
(** As {!eval}; the predicate's path must be the resolved one. *)

val project_resolved :
  ?meter:Meter.t -> resolved -> Materialize.gobject -> Value.t
(** As {!project}. *)
