(** Replicated object-signature catalog (future-work extension).

    Indexes the signature of every object of every component database by
    (database, LOid). The paper's signature-assisted strategies assume this
    auxiliary structure is replicated like the GOid mapping tables, so
    consulting a signature is local CPU work.

    Since the columnar re-representation, signatures live packed inside
    each extent ({!Msdq_odb.Extent.signatures}); the catalog stores no
    digests of its own. {!find} reads the object's extent and row through
    its database's LOid-indexed arrays ({!Msdq_odb.Database.locate}), so
    {!build} does no per-object work. *)

open Msdq_odb
open Msdq_fed

type t

type entry
(** One object's signature: a row of its extent's columnar store. *)

val build : Federation.t -> t

val find : t -> db:string -> Oid.Loid.t -> entry option

val may_satisfy : entry -> index:int -> op:Relop.t -> operand:Value.t -> bool
(** Whether the object behind this entry could satisfy [attr op operand]
    ([index] is the attribute's field position); exactly
    [Signature.may_satisfy] on the object's signature. *)

val object_count : t -> int

val storage_bytes : t -> s_sig:int -> int
(** Replica size at one site: one signature per object. *)
