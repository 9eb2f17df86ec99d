(** One walk of a query's paths over a root extent's columns.

    A query's paths (its atoms' and its targets') are walked once per
    database, a column at a time instead of an object at a time: each
    reference step is followed for every root row at once, and paths that
    share a prefix ([next] in [X.next.p0] and [X.next.p1]) walk it once.
    For each path and root row the scan keeps the step where the walk
    stopped and the row it stood on there, and it marks, per extent, every
    object it reached through a reference.

    Every answer equals the by-name walk's ({!Predicate.fetch},
    {!Predicate.eval}) from the same root object: the same value, the same
    blocking object, suffix and cause, the same meter charges and the same
    [Value.Type_error] message. *)

type t

val run : Database.t -> Extent.t -> Path.t array -> t
(** [run db root paths] walks every path from every row of [root], an
    extent of [db]. Charges nothing. Raises [Invalid_argument] on an empty
    path, and [Value.Type_error] with {!Predicate.fetch}'s message at the
    first root row whose walk continues through a primitive attribute that
    holds a value. *)

val root : t -> Extent.t

val length : t -> int -> int
(** The number of steps of path [i]. *)

val step : t -> int -> int -> int
(** [step t i r] is the step at which the walk of path [i] from root row
    [r] stopped: the index of the attribute it could not read, because the
    object's class does not define it or the object holds [Null] there.
    It is {!length} when the walk read a value. *)

val item : t -> int -> step:int -> int -> Dbobject.t
(** [item t i ~step r] is the object the walk of path [i] from root row
    [r] stood on at [step], which is at most the row's {!step} and below
    {!length}. At the row's {!step} it is the blocking object. *)

val rest : t -> int -> step:int -> Path.t
(** Path [i] from [step] on. *)

val cause : t -> int -> step:int -> Predicate.cause
(** Why a walk of path [i] that stopped at [step] stopped there. *)

val value : t -> int -> int -> Value.t
(** [value t i r] is the value path [i] reaches from root row [r], and
    [Null] where the walk stopped: a value is never [Null] at a row whose
    {!step} is {!length}. *)

val truths :
  ?meter:Meter.t -> t -> int -> op:Relop.t -> operand:Value.t -> Bytes.t
(** The truth column ({!Truth.code}) of [path op operand] for path [i]
    over the root rows: each row's {!Predicate.eval} outcome, [Unknown]
    where the walk stopped. The last attribute is evaluated over its
    extent ({!Extent.eval_attr}) and gathered through the walk. Charges
    [meter] as {!Predicate.eval} on every root row. Raises
    [Value.Type_error] as {!Predicate.compare_op} does at the first row
    whose value cannot be ordered against [operand]. *)

val touched : t -> Extent.t -> int
(** The distinct objects of an extent that some path reached through a
    reference. *)
