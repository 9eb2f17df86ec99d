open Msdq_odb

type unsolved = {
  atom : int;
  item : Dbobject.t;
  rest : Path.t;
  cause : Predicate.cause;
}

type row = {
  db : string;
  obj : Dbobject.t;
  goid : Oid.Goid.t;
  truths : Truth.t array;
  unsolved : unsolved list;
  values : Value.t option array;
}

type t = {
  db : string;
  rows : row list;
  examined : int;
  eliminated : int;
  work : Meter.snapshot;
}

let is_solved row = row.unsolved = []
