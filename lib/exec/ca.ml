open Msdq_odb
open Msdq_fed
open Msdq_query
module Tracer = Msdq_obs.Tracer

type outcome = {
  answer : Answer.t;
  integration_units : int;
  eval_work : Meter.snapshot;
  goid_lookups : int;
  materialize_stats : Materialize.stats;
}

let run ?(multi_valued = false) ?(tracer = Tracer.disabled) fed
    (analysis : Analysis.t) =
  Tracer.with_span tracer ~cat:"integrate" "ca.run" @@ fun () ->
  let meter = Meter.create () in
  let view =
    Tracer.with_span tracer ~cat:"integrate" "ca.materialize" (fun () ->
        Materialize.build ~classes:analysis.Analysis.classes_involved
          ~multi_valued ~meter fed)
  in
  let mstats = Materialize.stats view in
  let integration_units =
    mstats.Materialize.source_objects + mstats.Materialize.fields_merged
    + mstats.Materialize.ref_translations
  in
  let eval_meter = Meter.create () in
  let root = analysis.Analysis.range_class in
  let targets =
    Array.of_list
      (List.map
         (fun (path, _) -> Global_eval.resolve view ~root path)
         analysis.Analysis.targets)
  in
  let preds =
    Array.of_list (List.map (fun info -> info.Analysis.pred) analysis.Analysis.atoms)
  in
  let walks =
    Array.map (fun (p : Predicate.t) -> Global_eval.resolve view ~root p.Predicate.path) preds
  in
  let where = Cond.index preds analysis.Analysis.query.Ast.where in
  let truths = Array.make (Array.length preds) Truth.Unknown in
  let rows = ref [] in
  let eval_entity gobj =
    Array.iteri
      (fun i walk ->
        truths.(i) <-
          Global_eval.truth_of_outcome
            (Global_eval.eval_resolved ~meter:eval_meter walk gobj preds.(i)))
      walks;
    match Cond.eval_indexed truths where with
    | Truth.False -> ()
    | (Truth.True | Truth.Unknown) as t ->
      let values =
        Array.to_list
          (Array.map
             (fun walk -> Global_eval.project_resolved ~meter:eval_meter walk gobj)
             targets)
      in
      let status =
        match t with
        | Truth.True -> Answer.Certain
        | Truth.Unknown -> Answer.Maybe
        | Truth.False -> assert false
      in
      rows := { Answer.goid = gobj.Materialize.goid; values; status } :: !rows
  in
  Tracer.with_span tracer ~cat:"eval" "ca.global-eval" (fun () ->
      List.iter eval_entity (Materialize.extent view root));
  let answer =
    Answer.make ~targets:(List.map fst analysis.Analysis.targets) (List.rev !rows)
  in
  {
    answer;
    integration_units;
    eval_work = Meter.read eval_meter;
    goid_lookups =
      (Meter.read meter).Meter.goid_lookups
      + (Meter.read eval_meter).Meter.goid_lookups;
    materialize_stats = mstats;
  }
