open Msdq_odb

type t = Local_eval.probe = {
  db : string;
  items : Local_result.unsolved list;
  examined : int;
  work : Meter.snapshot;
}

let run ?tracer fed analysis ~db =
  Local_eval.probe ?tracer (Local_eval.scan ?tracer fed analysis ~db)
