(** Missing-data probing — phase O's discovery part in PL (step PL_C1),
    as one call: {!Local_eval.scan} then {!Local_eval.probe}. *)

open Msdq_odb
open Msdq_fed
open Msdq_query

type t = Local_eval.probe = {
  db : string;
  items : Local_result.unsolved list;
      (** one entry per (object, blocked atom), in extent order; includes
          root-level blocks (which produce no check requests) *)
  examined : int;
  work : Meter.snapshot;
}

val run :
  ?tracer:Msdq_obs.Tracer.t -> Federation.t -> Analysis.t -> db:string -> t
