(** Local predicate evaluation — phase P inside one component database
    (steps BL_C1 / PL_C2) — and what phase O's probe and the localized
    read need from the same walk.

    One {!scan} per (query, database) walks every path of the query over
    the local root extent's columns ({!Msdq_odb.Scan}). Three results
    derive from it:
    - {!result}: every atom evaluated with {!Msdq_odb.Predicate.eval}'s
      semantics, the WHERE clause combined over truth columns, and a row
      for each root object whose condition is not definitely false.
      Predicates whose whole chain is defined locally get definite
      verdicts (or block on nulls); predicates hitting a schema-level
      missing attribute block exactly at the cut, which simultaneously
      performs the paper's "project the nested complex attributes holding
      missing attributes" — the blocking object {e is} the unsolved item;
    - {!touched}: how much of each branch extent the evaluation reads
      (Table 2's [R_r]);
    - {!probe}: PL's missing-data probe over every root object. *)

open Msdq_odb
open Msdq_fed
open Msdq_query

type scan
(** The walk of one query's paths over one database's root extent. *)

val scan :
  ?tracer:Msdq_obs.Tracer.t -> Federation.t -> Analysis.t -> db:string -> scan
(** Walks every atom's and target's path from every object of the local
    root class, recorded as a [local_eval.scan] host span on [tracer].
    Raises [Invalid_argument] when [db] has no constituent of the range
    class (callers iterate over [Localize.plan]). *)

val result : ?tracer:Msdq_obs.Tracer.t -> scan -> Local_result.t
(** The local result, derived once per scan and recorded as a
    [local_eval.run] host span; later calls return the same result. Objects
    whose condition is definitely false are eliminated; the rest become
    rows (solved or maybe). Work counters cover exactly this evaluation:
    per root object what {!Msdq_odb.Predicate.eval} charges for each atom,
    and per row one GOid lookup and what fetching each target charges. *)

val touched : scan -> (string * int) list
(** [(global class, distinct local objects touched)] for the range class
    (its full extent) and every involved branch class with a constituent
    in the database, in [Analysis.classes_involved] order. A branch
    object is touched when some path reaches it through a reference: a
    component database reads only the branch objects the root extent
    references; composition-clustered storage (as in ORION, the paper's
    reference [10]) makes these traversals sequential-ish, while the
    centralized approach must ship whole extents. Bookkeeping, not
    simulated work: nothing is charged for it. *)

type probe = {
  db : string;
  items : Local_result.unsolved list;
      (** one entry per (object, blocked atom), in extent order; includes
          root-level blocks (which produce no check requests) *)
  examined : int;
  work : Meter.snapshot;
}
(** Missing-data probing — phase O's discovery part in PL (step PL_C1):
    where every atom's path blocks on {e every} object of the local root
    class, without evaluating any comparison. The parallel localized
    approach looks up assistant objects before the local predicates run,
    so it probes all objects — not just the survivors — which is exactly
    its extra overhead over BL. *)

val probe : ?tracer:Msdq_obs.Tracer.t -> scan -> probe
(** The probe, recorded as a [probe.run] host span. Its work is what
    {!Msdq_odb.Predicate.fetch} of every atom's path charges on every root
    object. Once the scan's {!result} exists, its rows' unsolved entries
    are the probe's items for their objects. *)

val run :
  ?tracer:Msdq_obs.Tracer.t -> Federation.t -> Analysis.t -> db:string ->
  Local_result.t
(** [result (scan fed analysis ~db)]. *)
