(** Certification — phase I at the global processing site (step BL_G2).

    Local results from all root-hosting databases are merged per entity
    (GOid), together with the assistant-check verdicts:

    {ul
    {- An entity {e expected} in some database's local result (per the
       replicated GOid tables) but absent from it was eliminated there by a
       definite predicate violation, so it is eliminated globally — this is
       how the paper's example drops s1 when its isomer s2' fails the city
       predicate in DB2.}
    {- Per atom, the truth values determined by the different databases and
       by the assistant checks are combined: any definite verdict wins over
       Unknown (isomeric objects jointly satisfying the unsolved predicates
       is the paper's certification rule; a violating assistant eliminates).}
    {- The query condition is then re-evaluated over the merged atom truths:
       True yields a certain result, Unknown a maybe result, False
       elimination.}}

    Projected values merge across databases (first local value wins; on
    consistent federations all agree). *)

open Msdq_odb
open Msdq_query

type outcome = {
  answer : Answer.t;
  promoted : int;  (** maybe rows turned certain by merging/checking *)
  eliminated : int;  (** entities dropped at the global site *)
  conflicts : int;  (** contradicting definite verdicts (inconsistent data) *)
  work : Meter.snapshot;
  goid_lookups : int;
}

val run :
  ?multi_valued:bool ->
  ?tracer:Msdq_obs.Tracer.t ->
  Msdq_fed.Federation.t ->
  Analysis.t ->
  results:Local_result.t list ->
  verdicts:Checks.verdict list ->
  outcome
(** With [~multi_valued:true] (extension), an entity's atom satisfied in any
    database is satisfied, even if another copy violates it — matching CA's
    existential evaluation over integrated value sets.

    Each entity's rows merge in [results] order, which decides the conflict
    count and which projected value wins; the answer's rows come out in
    GOid order. Raises [Invalid_argument] on a row whose GOid the
    federation did not register, or on a verdict about an atom the query
    does not have. *)
