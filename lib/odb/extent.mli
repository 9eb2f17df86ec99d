(** Columnar extent storage: one flat unboxed array per attribute, a
    presence bitset per column, and the extent's columnar signature store.

    The extent still owns the boxed row handles ([{!Dbobject.t}]) — they
    remain the identity that GOid tables, blocking points and answers carry
    — but attribute values are mirrored into typed columns ([int array],
    flat [float array], [string array], [Bytes.t] bools, [int array]
    LOids) so whole-extent predicate evaluation ({!eval_attr}) and BLS/PLS
    signature filtering ({!signatures}) run as tight loops over contiguous
    data instead of per-object hashtable probes. docs/PERFORMANCE.md walks
    the layout and its measured effect. *)

type t

val create : schema:Schema.t -> cls:string -> t
(** An empty extent for [cls], with one typed column per attribute of the
    class definition. Raises [Invalid_argument] on an unknown class. *)

val append : t -> Dbobject.t -> int
(** Appends one row: stores the handle, scatters the fields into the
    columns (nulls leave the presence bit clear), feeds the signature
    store, and returns the row index. Raises [Invalid_argument] when the
    object's class or arity does not match — {!Database.add} has already
    validated the field types. *)

val cls : t -> string

val size : t -> int

val handle : t -> int -> Dbobject.t
(** The boxed row handle at a row index. Raises [Invalid_argument] out of
    range. *)

val to_list : t -> Dbobject.t list
(** All handles in insertion order — the compatibility view behind
    {!Database.extent}. *)

val iter : (Dbobject.t -> unit) -> t -> unit
(** Iterates the handles in insertion order without building a list. *)

val signatures : t -> Sigset.t
(** The extent's columnar signature store, maintained on {!append}; row
    indices agree with the extent's. *)

(** {2 Columnar predicate evaluation} *)

type verdict =
  | V_sat  (** value present, predicate satisfied *)
  | V_viol  (** value present, predicate violated *)
  | V_null  (** blocked: the attribute holds [Null] *)
  | V_missing  (** blocked: the class does not define the attribute *)

val verdict : Bytes.t -> int -> verdict
(** Decodes row [r] of an {!eval_attr} result. *)

val eval_attr :
  ?meter:Meter.t ->
  t ->
  attr:string ->
  op:Relop.t ->
  operand:Value.t ->
  Bytes.t option
(** Evaluates the one-step predicate [attr op operand] over every row in
    one typed loop; [Some codes] holds one {!verdict} byte per row.
    [None] means only the per-object walk reproduces the exact semantics
    (an ordering comparison against a column of a different type raises
    [Value.Type_error] at the first non-null row) — the caller falls back
    to a per-object walk ({!Predicate.eval} or its slot-resolved form) and
    nothing has been charged to the meter. On
    [Some], the meter is charged identically to the per-object walk: one
    access per row, one comparison per non-null row. *)
