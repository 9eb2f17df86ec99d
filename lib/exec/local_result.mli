(** Local results of a component database (the paper's R1/R2 of Figure 7).

    A row is a root object that survived the local predicates: its per-atom
    truth values, the target values it could project locally, and its
    {e unsolved} entries — atoms blocked by missing data, each pinpointing
    the {e unsolved item} (the blocking object: the root itself or a nested
    object) and the path suffix an assistant object would have to satisfy. *)

open Msdq_odb

type unsolved = {
  atom : int;  (** index into [Analysis.atoms] *)
  item : Dbobject.t;  (** the blocking object in this database *)
  rest : Path.t;  (** suffix to evaluate on assistants, head = missing attr *)
  cause : Predicate.cause;
}

type row = {
  db : string;
  obj : Dbobject.t;  (** the local root object *)
  goid : Oid.Goid.t;
  truths : Truth.t array;
      (** per atom, locally determined; rows may share one array, so
          never write to it *)
  unsolved : unsolved list;  (** exactly the atoms whose truth is Unknown *)
  values : Value.t option array;  (** per target; [None] = not locally derivable *)
}

type t = {
  db : string;
  rows : row list;
  examined : int;  (** root objects evaluated *)
  eliminated : int;  (** root objects whose local condition was False *)
  work : Meter.snapshot;  (** comparisons/accesses spent producing the rows *)
}

val is_solved : row -> bool
(** No unsolved atoms: a locally certain result (pending global merge). *)
