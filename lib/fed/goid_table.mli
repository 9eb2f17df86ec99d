(** GOid mapping tables (paper, Figure 5).

    One logical table per global class maps each GOid to the LOids of its
    isomeric objects in the component databases. The paper replicates the
    tables at every site, so a lookup is local CPU work; lookups are charged
    to the caller-supplied {!Meter.t} so each run's cost accounting stays
    independent of every other run's.

    Entities live in an array indexed by GOid, and each database has one
    LOid-to-GOid int array ({!local_map}): a lookup is array loads. *)

open Msdq_odb

type t

val create : unit -> t

exception Duplicate of string

val register : t -> gcls:string -> (string * Oid.Loid.t) list -> Oid.Goid.t
(** [register t ~gcls locals] allocates a fresh GOid for a real-world entity
    of global class [gcls] whose isomeric objects are [locals] (database
    name, LOid). Raises {!Duplicate} if any of the local objects is already
    registered, or if [locals] is empty, and [Invalid_argument] on a
    negative LOid; it registers nothing then. GOids are allocated
    sequentially, so registration order is reproducible. *)

val goid_of_local : t -> ?meter:Meter.t -> db:string -> Oid.Loid.t -> Oid.Goid.t option
(** Charged as one table lookup to [meter]. *)

type local_map
(** One database's LOid-to-GOid column, resolved once per query. *)

val local_map : t -> db:string -> local_map
(** The column of [db]; empty for a database with no registered object.
    Objects registered after the call may not show in it. *)

val goid_in : local_map -> ?meter:Meter.t -> Oid.Loid.t -> Oid.Goid.t option
(** [goid_in (local_map t ~db) loid] is [goid_of_local t ~db loid], charged
    the same. *)

val isomers_in :
  t -> local_map -> ?meter:Meter.t -> Oid.Loid.t -> (string * Oid.Loid.t) list
(** [isomers_in t (local_map t ~db) loid] is the object's isomeric objects
    in {e other} databases — its potential assistant objects. Empty when
    the object is unregistered or a singleton. Charged as one table lookup
    to [meter]. *)

val locals_of : t -> ?meter:Meter.t -> Oid.Goid.t -> (string * Oid.Loid.t) list
(** All isomeric objects of an entity, in registration order. Charged as
    one table lookup to [meter]. *)

val db_names : t -> string list
(** The databases holding a registered object, in order of their first
    registration: the database numbered [i] by {!local_dbs} is the [i]th
    name. *)

val local_dbs : t -> ?meter:Meter.t -> Oid.Goid.t -> int list
(** The numbers ({!db_names}) of the databases holding the entity's
    isomeric objects, in {!locals_of} order. Charged as one table lookup to
    [meter]. *)

val gcls_of : t -> Oid.Goid.t -> string option

val goids_of_class : t -> gcls:string -> Oid.Goid.t list
(** In registration order. *)

val entity_count : t -> int

val pp : Format.formatter -> t -> unit
