open Msdq_odb
open Msdq_fed
open Msdq_query
module Tracer = Msdq_obs.Tracer

type t = {
  db : string;
  items : Local_result.unsolved list;
  examined : int;
  work : Meter.snapshot;
}

let run ?(tracer = Tracer.disabled) fed (analysis : Analysis.t) ~db:db_name =
  Tracer.with_span tracer ~cat:"eval" ~args:[ ("db", db_name) ] "probe.run"
  @@ fun () ->
  let gs = Federation.global_schema fed in
  let db = Federation.db fed db_name in
  let local_class =
    match
      Global_schema.constituent_of gs ~gcls:analysis.Analysis.range_class ~db:db_name
    with
    | Some cls -> cls
    | None ->
      invalid_arg
        (Printf.sprintf "Probe.run: %s has no constituent of %s" db_name
           analysis.Analysis.range_class)
  in
  let walks =
    Array.of_list
      (List.map
         (fun info ->
           Slot_path.resolve db info.Analysis.pred.Predicate.path)
         analysis.Analysis.atoms)
  in
  let meter = Meter.create () in
  let examined = ref 0 in
  let items = ref [] in
  let probe_object obj =
    incr examined;
    Array.iteri
      (fun i walk ->
        match Slot_path.fetch ~meter walk obj with
        | Predicate.Found _ -> ()
        | Predicate.Missing b ->
          items :=
            {
              Local_result.atom = i;
              item = b.Predicate.obj;
              rest = b.Predicate.rest;
              cause = b.Predicate.cause;
            }
            :: !items)
      walks
  in
  Extent.iter probe_object (Database.extent_handle db local_class);
  {
    db = db_name;
    items = List.rev !items;
    examined = !examined;
    work = Meter.read meter;
  }
