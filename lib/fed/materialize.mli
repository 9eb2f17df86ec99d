(** Materialization of global classes (paper, Figure 6).

    The centralized approach integrates the objects of the constituent
    classes with an outerjoin over GOids: each entity becomes one global
    object whose fields merge the non-null values of its isomeric objects,
    with references translated from LOids to GOids. This module builds that
    integrated view; {!Global_eval} evaluates predicates over it.

    Merging takes the first non-null value in database (registration) order.
    On consistent federations (see {!Isomerism.check_consistency}) the order
    is irrelevant; [stats.conflicts] counts the positions where isomeric
    objects disagreed. *)

open Msdq_odb

type gvalue =
  | Gnull
  | Gprim of Value.t  (** never [Null], never [Ref] *)
  | Gref of Oid.Goid.t
  | Gset of Value.t list
      (** multi-valued integration result: two or more distinct primitive
          values contributed by isomeric objects (only under
          [~multi_valued:true]; ordered by database, duplicates removed) *)

type gobject = { goid : Oid.Goid.t; gcls : string; fields : gvalue array }
(** Fields aligned with the attribute order of the global class. *)

type stats = {
  entities : int;  (** global objects materialized *)
  source_objects : int;  (** constituent objects consumed by the outerjoin *)
  fields_merged : int;  (** non-null field values inspected *)
  ref_translations : int;  (** LOid-to-GOid translations performed *)
  conflicts : int;  (** fields where isomeric objects disagreed *)
}

type t

val build :
  ?classes:string list -> ?multi_valued:bool -> ?meter:Meter.t -> Federation.t -> t
(** Materializes the given global classes (default: all). Only the listed
    classes are available to lookups afterwards. GOid-table probes performed
    by the outerjoin are charged to [meter].

    With [~multi_valued:true] (extension; the paper's Section 5 names
    multi-valued attributes whose values come from different component
    databases as open work), disagreeing primitive values of isomeric
    objects integrate into a {!Gset} instead of counting as conflicts.
    Reference disagreements still count as conflicts. *)

val find : t -> Oid.Goid.t -> gobject option

val extent : t -> string -> gobject list
(** Global objects of a class, in GOid order. Empty for unknown or
    unmaterialized classes. *)

val field : t -> gobject -> string -> gvalue option
(** [None] when the global class does not define the attribute. *)

val attr_slot : t -> gcls:string -> attr:string -> int option
(** The attribute's position in the [fields] of a materialized [gcls]
    object; [None] when the class does not define it or was not
    materialized. [field t o a] reads [o.fields] at
    [attr_slot t ~gcls:o.gcls ~attr:a]. *)

val stats : t -> stats

val pp_gvalue : Format.formatter -> gvalue -> unit

val pp_gobject : Format.formatter -> gobject -> unit
