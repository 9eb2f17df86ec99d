(** Local predicate evaluation — phase P inside one component database
    (steps BL_C1 / PL_C2).

    Every atom of the (global) query is evaluated against each object of the
    local root class with {!Msdq_odb.Predicate.eval}'s semantics — a
    one-step atom as a column ({!Msdq_odb.Extent.eval_attr}), any other
    over attribute slots resolved once per call
    ({!Msdq_odb.Slot_path}): predicates whose whole
    chain is defined locally get definite verdicts (or block on nulls);
    predicates hitting a schema-level missing attribute block exactly at the
    cut, which simultaneously performs the paper's "project the nested
    complex attributes holding missing attributes" — the blocking object
    {e is} the unsolved item.

    Objects whose condition is definitely false are eliminated; the rest
    become local rows (solved or maybe). *)

open Msdq_fed
open Msdq_query

val run :
  ?tracer:Msdq_obs.Tracer.t -> Federation.t -> Analysis.t -> db:string ->
  Local_result.t
(** Raises [Invalid_argument] when [db] has no constituent of the range
    class (callers iterate over [Localize.plan]). Work counters in the
    result cover exactly this call. *)
