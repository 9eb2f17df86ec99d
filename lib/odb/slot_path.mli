(** Paths resolved to attribute slots once, walked per object.

    {!Predicate.fetch} resolves every step by name, two string-hashed
    probes per step per object. A query's per-object loops instead resolve
    each path once per database and walk objects with {!Dbobject.field}
    and LOid dereferences. The result is the same as the by-name walk for
    every object: the same {!Predicate.fetched} value, the same meter
    accesses, the same [Value.Type_error] message. Each step is resolved
    by name at the first object it meets, and again at an object of
    another class. *)

type t

val resolve : Database.t -> Path.t -> t
(** Prepares [path] for walks over objects of the database. Never fails:
    an unknown attribute blocks (or raises) exactly where
    {!Predicate.fetch} would. *)

val fetch : ?meter:Meter.t -> t -> Dbobject.t -> Predicate.fetched
(** [fetch t obj] is [Predicate.fetch ?meter db obj path]. Raises
    [Invalid_argument] on an empty path and [Value.Type_error] on a path
    that continues through a primitive attribute, as the by-name walk
    does. *)

val eval :
  ?meter:Meter.t -> t -> op:Predicate.op -> operand:Value.t -> Dbobject.t ->
  Predicate.outcome
(** [eval t ~op ~operand obj] is [Predicate.eval ?meter db obj
    { path; op; operand }]. *)

val iter_refs : t -> Dbobject.t -> (Dbobject.t -> unit) -> unit
(** Calls [f] on each object reached through a reference along the path,
    in order, stopping at the first step that holds no reference. Charges
    nothing. *)
