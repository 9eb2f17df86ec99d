(** A component object database.

    Holds a schema and the extents of its classes. Objects are created
    through {!add}, which allocates the LOid, checks arity and types, and
    (for [Ref] fields) checks that the referenced object exists and belongs
    to the attribute's domain class — so a well-formed database never
    contains dangling or ill-typed references.

    LOids are allocated densely from 0 and no object is ever deleted, so
    objects live in arrays indexed by LOid: {!get} and {!locate} are
    bounds-checked array loads. *)

type t

exception Integrity_error of string

val create : name:string -> schema:Schema.t -> t

val name : t -> string

val schema : t -> Schema.t

val add : t -> cls:string -> Value.t list -> Dbobject.t
(** Inserts a new object; fields are given in the attribute order of the
    class. Raises {!Integrity_error} on unknown class, arity mismatch, type
    mismatch, or a reference to a missing/foreign-class object. *)

val get : t -> Oid.Loid.t -> Dbobject.t option

val get_exn : t -> Oid.Loid.t -> Dbobject.t
(** Raises {!Integrity_error} when absent. *)

val locate : t -> Oid.Loid.t -> (Extent.t * int) option
(** The object's class extent and its row there; [None] for an LOid the
    database never allocated. A lookup is two array loads: LOids are dense
    from 0 (see {!add}). *)

val deref : t -> Value.t -> Dbobject.t option
(** [deref db (Ref l)] follows a reference; [None] for any other value. *)

val extent : t -> string -> Dbobject.t list
(** All objects of a class, in insertion order — a list view materialized
    from the columnar extent. Raises {!Integrity_error} on an unknown
    class. Scan loops that care about speed should take {!extent_handle}
    instead. *)

val extent_handle : t -> string -> Extent.t
(** The class's columnar extent itself: typed columns, presence bitsets
    and the signature store, for tight-loop evaluation
    ({!Extent.eval_attr}). Raises {!Integrity_error} on an unknown
    class. *)

val extent_size : t -> string -> int

val cardinality : t -> int
(** Total number of objects across all extents. *)

val field_by_name : t -> Dbobject.t -> string -> Value.t option
(** [None] when the object's class does not define the attribute (the
    per-object missing-attribute test at schema level). *)

val pp : Format.formatter -> t -> unit
