(** Assistant-object checking — phase O's remote part (steps BL_C2/BL_C3,
    PL_C1/PL_C3).

    For each unsolved item, the GOid mapping tables yield its isomeric
    objects in other databases (the {e assistant objects}); a check request
    ships the assistant's LOid together with the unsolved predicate suffix
    to the assistant's database, which evaluates it and returns a verdict.

    Requests are deduplicated per (item, atom): many maybe results can share
    one unsolved item (e.g. students with the same advisor), and the paper
    collects LOids per class before sending. Root-level blocks produce no
    requests — root objects are certified through the other databases' local
    results instead (paper, Section 2.3).

    With a signature catalog, single-attribute equality checks are first
    tested against the assistant's replicated signature: a mismatch is a
    definitive local [False] verdict and the round trip is skipped. *)

open Msdq_odb
open Msdq_fed
open Msdq_query

type request = {
  origin_db : string;
  target_db : string;
  assistant : Oid.Loid.t;  (** object to check, in [target_db] *)
  item : Oid.Loid.t;  (** the unsolved item back in [origin_db] *)
  atom : int;
  pred : Predicate.t;  (** relative predicate: path = the unsolved suffix *)
}

type verdict = {
  origin_db : string;
  item : Oid.Loid.t;
  atom : int;
  truth : Truth.t;
}

type built = {
  requests : request list;
  local_verdicts : verdict list;
      (** verdicts decided at the origin site by signature filtering *)
  filtered : int;  (** requests avoided thanks to signatures *)
  incapable : int;
      (** assistants skipped because their component schema cannot resolve
          the suffix (the paper: "no assistant object can provide the
          data") *)
  root_level : int;  (** blocks at the root object (no requests needed) *)
  goid_lookups : int;
  work : Meter.snapshot;
      (** all dispatch-side work: GOid-table probes and signature
          comparisons, measured on a private per-call meter *)
}

val build :
  ?signatures:Sig_catalog.t -> ?tracer:Msdq_obs.Tracer.t -> Federation.t ->
  Analysis.t -> db:string -> root_class:string ->
  items:Local_result.unsolved list -> built
(** [root_class] is [db]'s constituent of the range class, used to separate
    root-level blocks from item-level ones. When [tracer] is given, the call
    records a ["checks.build"] host span. *)

type served = {
  verdicts : verdict list;
  objects_read : int;
  work : Meter.snapshot;
}

val serve :
  ?tracer:Msdq_obs.Tracer.t -> Federation.t -> db:string -> request list ->
  served
(** Step BL_C3: evaluate each request's predicate on the assistant object in
    [db]. All requests must target [db]. [work] is measured on a private
    meter, so concurrent serves never mix counts. *)

val request_signature : request -> string
(** The verdict-cache key used by the workload engine ([Msdq_serve]):
    [target_db], assistant LOid and the full relative predicate (path
    suffix, operator and operand). Deliberately excludes the origin item and
    atom index — a verdict depends only on the assistant object's attribute
    values and the relative predicate, never on the querying context, which
    is exactly why one query's verdict can certify another query's row. *)
