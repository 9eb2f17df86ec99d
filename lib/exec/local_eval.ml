open Msdq_odb
open Msdq_fed
open Msdq_query
module Tracer = Msdq_obs.Tracer

let log_src = Logs.Src.create "msdq.local" ~doc:"local predicate evaluation"

module Log = (val Logs.src_log log_src : Logs.LOG)

let run ?(tracer = Tracer.disabled) fed (analysis : Analysis.t) ~db:db_name =
  Tracer.with_span tracer ~cat:"eval" ~args:[ ("db", db_name) ]
    "local_eval.run"
  @@ fun () ->
  let gs = Federation.global_schema fed in
  let db = Federation.db fed db_name in
  let table = Federation.goids fed in
  let local_class =
    match
      Global_schema.constituent_of gs ~gcls:analysis.Analysis.range_class ~db:db_name
    with
    | Some cls -> cls
    | None ->
      invalid_arg
        (Printf.sprintf "Local_eval.run: %s has no constituent of %s" db_name
           analysis.Analysis.range_class)
  in
  let atoms = Array.of_list analysis.Analysis.atoms in
  let preds = Array.map (fun info -> info.Analysis.pred) atoms in
  let where = Cond.index preds analysis.Analysis.query.Ast.where in
  let meter = Meter.create () in
  let ext = Database.extent_handle db local_class in
  let goids = Goid_table.local_map table ~db:db_name in
  (* Columnar fast path: a single-step atom evaluates over the whole extent
     in one typed loop ([Extent.eval_attr]), leaving only per-row verdict
     decoding in the object loop below. [None] — a nested path, or an
     ordering comparison the column cannot answer exactly — falls back to
     the per-object walk over slots resolved once here; answers and meter
     totals are identical either way. *)
  let fast =
    Array.map
      (fun (pred : Predicate.t) ->
        match pred.Predicate.path with
        | [ attr ] ->
          Extent.eval_attr ~meter ext ~attr ~op:pred.Predicate.op
            ~operand:pred.Predicate.operand
        | _ -> None)
      preds
  in
  let walks =
    Array.map
      (fun (pred : Predicate.t) ->
        Slot_path.resolve db pred.Predicate.path)
      preds
  in
  let targets =
    Array.of_list
      (List.map
         (fun (path, _) -> Slot_path.resolve db path)
         analysis.Analysis.targets)
  in
  let n_atoms = Array.length atoms in
  let truths = Array.make n_atoms Truth.Unknown in
  let examined = ref 0 and eliminated = ref 0 in
  let rows = ref [] in
  let block unsolved i item rest cause =
    truths.(i) <- Truth.Unknown;
    unsolved := { Local_result.atom = i; item; rest; cause } :: !unsolved
  in
  let eval_object r obj =
    incr examined;
    let unsolved = ref [] in
    for i = 0 to n_atoms - 1 do
      let pred = preds.(i) in
      match fast.(i) with
      | Some codes -> (
        match Extent.verdict codes r with
        | Extent.V_sat -> truths.(i) <- Truth.True
        | Extent.V_viol -> truths.(i) <- Truth.False
        | Extent.V_null ->
          block unsolved i obj pred.Predicate.path Predicate.Null_value
        | Extent.V_missing ->
          block unsolved i obj pred.Predicate.path Predicate.Missing_attribute)
      | None -> (
        match
          Slot_path.eval ~meter walks.(i) ~op:pred.Predicate.op
            ~operand:pred.Predicate.operand obj
        with
        | Predicate.Sat -> truths.(i) <- Truth.True
        | Predicate.Viol -> truths.(i) <- Truth.False
        | Predicate.Blocked b ->
          block unsolved i b.Predicate.obj b.Predicate.rest b.Predicate.cause)
    done;
    match Cond.eval_indexed truths where with
    | Truth.False -> incr eliminated
    | Truth.True | Truth.Unknown ->
      let goid =
        match Goid_table.goid_in goids ~meter (Dbobject.loid obj) with
        | Some g -> g
        | None ->
          invalid_arg
            (Printf.sprintf "Local_eval.run: object %s@%s is not registered"
               (Oid.Loid.to_string (Dbobject.loid obj))
               db_name)
      in
      let values =
        Array.map
          (fun walk ->
            match Slot_path.fetch ~meter walk obj with
            | Predicate.Found v -> Some v
            | Predicate.Missing _ -> None)
          targets
      in
      rows :=
        {
          Local_result.db = db_name;
          obj;
          goid;
          truths = Array.copy truths;
          unsolved = List.rev !unsolved;
          values;
        }
        :: !rows
  in
  for r = 0 to Extent.size ext - 1 do
    eval_object r (Extent.handle ext r)
  done;
  Log.debug (fun m ->
      m "%s: %d examined, %d eliminated, %d rows" db_name !examined !eliminated
        (List.length !rows));
  {
    Local_result.db = db_name;
    rows = List.rev !rows;
    examined = !examined;
    eliminated = !eliminated;
    work = Meter.read meter;
  }
