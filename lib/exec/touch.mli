(** How much of each branch extent a localized evaluation actually touches.

    A component database evaluates nested predicates by traversing
    references from the root extent, so it only reads the branch objects
    that are actually referenced (Table 2's [R_r]); composition-clustered
    storage (as in ORION, the paper's reference [10]) makes these traversals
    sequential-ish. The centralized approach, by contrast, must ship whole
    extents — it cannot know which branch objects matter without evaluating.

    This module counts, per involved global class, the distinct local
    objects reachable from the root extent through the query's paths. The
    walk is bookkeeping, not simulated work: callers must not charge its
    meter activity to any task. *)

open Msdq_fed
open Msdq_query

val count :
  ?tracer:Msdq_obs.Tracer.t -> Federation.t -> Analysis.t -> db:string ->
  (string * int) list
(** [(global class, distinct local objects touched)] for the range class
    (its full extent) and every involved branch class with a constituent in
    [db]. The walk is recorded as a [touch.count] host span on [tracer]. *)
