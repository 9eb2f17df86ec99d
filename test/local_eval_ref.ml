(* The per-object local evaluation that the column scan replaced, kept as
   the test oracle: [run], [touched] and [probe] are what [Local_eval.run],
   [Touch.count] and [Probe.run] did before the scan, each walking every
   path by name ([Predicate.fetch], [Predicate.eval]) from every root
   object, and evaluating the WHERE clause with [Cond.eval] per object.
   They share no walk with [Local_eval]; only the result types and
   [Goid_table] are common. [run], [touched] and [probe] must return what
   [Local_eval.result], [Local_eval.touched] and [Local_eval.probe] return
   on the scan of the same (query, database): the same rows, holding the
   physically same objects, counters, meter totals and probe items
   ([render]). *)

open Msdq_odb
open Msdq_fed
open Msdq_query
open Msdq_exec

let root_class fed (analysis : Analysis.t) ~db =
  match
    Global_schema.constituent_of (Federation.global_schema fed)
      ~gcls:analysis.Analysis.range_class ~db
  with
  | Some cls -> cls
  | None ->
    invalid_arg
      (Printf.sprintf "Local_eval_ref: %s has no constituent of %s" db
         analysis.Analysis.range_class)

let unsolved i (b : Predicate.block) =
  {
    Local_result.atom = i;
    item = b.Predicate.obj;
    rest = b.Predicate.rest;
    cause = b.Predicate.cause;
  }

let run fed (analysis : Analysis.t) ~db:db_name =
  let db = Federation.db fed db_name in
  let cls = root_class fed analysis ~db:db_name in
  let atoms =
    Array.of_list (List.map (fun info -> info.Analysis.pred) analysis.Analysis.atoms)
  in
  let meter = Meter.create () in
  let examined = ref 0 and eliminated = ref 0 and rows = ref [] in
  List.iter
    (fun obj ->
      incr examined;
      let blocked = ref [] in
      let truths =
        Array.mapi
          (fun i pred ->
            match Predicate.eval ~meter db obj pred with
            | Predicate.Sat -> Truth.True
            | Predicate.Viol -> Truth.False
            | Predicate.Blocked b ->
              blocked := unsolved i b :: !blocked;
              Truth.Unknown)
          atoms
      in
      let oracle p =
        let rec first i =
          if i >= Array.length atoms then Truth.Unknown
          else if Predicate.equal atoms.(i) p then truths.(i)
          else first (i + 1)
        in
        first 0
      in
      match Cond.eval oracle analysis.Analysis.query.Ast.where with
      | Truth.False -> incr eliminated
      | Truth.True | Truth.Unknown ->
        let goid =
          match
            Goid_table.goid_of_local (Federation.goids fed) ~meter ~db:db_name
              (Dbobject.loid obj)
          with
          | Some g -> g
          | None -> invalid_arg "Local_eval_ref.run: unregistered object"
        in
        let values =
          Array.of_list
            (List.map
               (fun (path, _) ->
                 match Predicate.fetch ~meter db obj path with
                 | Predicate.Found v -> Some v
                 | Predicate.Missing _ -> None)
               analysis.Analysis.targets)
        in
        rows :=
          {
            Local_result.db = db_name;
            obj;
            goid;
            truths;
            unsolved = List.rev !blocked;
            values;
          }
          :: !rows)
    (Database.extent db cls);
  {
    Local_result.db = db_name;
    rows = List.rev !rows;
    examined = !examined;
    eliminated = !eliminated;
    work = Meter.read meter;
  }

let touched fed (analysis : Analysis.t) ~db:db_name =
  let gs = Federation.global_schema fed in
  let db = Federation.db fed db_name in
  let cls = root_class fed analysis ~db:db_name in
  let seen = Hashtbl.create 64 in
  let rec walk obj = function
    | [] -> ()
    | name :: rest -> (
      match Database.field_by_name db obj name with
      | Some (Value.Ref _ as v) -> (
        match Database.deref db v with
        | Some next ->
          Hashtbl.replace seen (Dbobject.loid next) ();
          walk next rest
        | None -> ())
      | Some _ | None -> ())
  in
  let paths =
    List.map fst analysis.Analysis.targets
    @ List.map (fun info -> info.Analysis.pred.Predicate.path) analysis.Analysis.atoms
  in
  List.iter (fun obj -> List.iter (walk obj) paths) (Database.extent db cls);
  List.filter_map
    (fun gcls ->
      if String.equal gcls analysis.Analysis.range_class then
        Some (gcls, Database.extent_size db cls)
      else
        match Global_schema.constituent_of gs ~gcls ~db:db_name with
        | None -> None
        | Some local ->
          Some
            ( gcls,
              List.length
                (List.filter
                   (fun o -> Hashtbl.mem seen (Dbobject.loid o))
                   (Database.extent db local)) ))
    analysis.Analysis.classes_involved

let probe fed (analysis : Analysis.t) ~db:db_name =
  let db = Federation.db fed db_name in
  let cls = root_class fed analysis ~db:db_name in
  let meter = Meter.create () in
  let examined = ref 0 and items = ref [] in
  List.iter
    (fun obj ->
      incr examined;
      List.iteri
        (fun i info ->
          match Predicate.fetch ~meter db obj info.Analysis.pred.Predicate.path with
          | Predicate.Found _ -> ()
          | Predicate.Missing b -> items := unsolved i b :: !items)
        analysis.Analysis.atoms)
    (Database.extent db cls);
  {
    Probe.db = db_name;
    items = List.rev !items;
    examined = !examined;
    work = Meter.read meter;
  }

(* ---- Comparison as text ---- *)

let obj_text o =
  Printf.sprintf "%s@%s" (Dbobject.cls o) (Oid.Loid.to_string (Dbobject.loid o))

let unsolved_text (u : Local_result.unsolved) =
  Printf.sprintf "atom %d at %s on %s (%s)" u.Local_result.atom
    (obj_text u.Local_result.item)
    (Path.to_string u.Local_result.rest)
    (match u.Local_result.cause with
    | Predicate.Missing_attribute -> "missing"
    | Predicate.Null_value -> "null")

let work_text (w : Meter.snapshot) =
  Printf.sprintf "comparisons %d accesses %d goid lookups %d" w.Meter.comparisons
    w.Meter.accesses w.Meter.goid_lookups

(* A local result, its touched counts and its probe, one fact a line. *)
let render (r : Local_result.t) touched (p : Probe.t) =
  String.concat "\n"
    (Printf.sprintf "%s: examined %d eliminated %d %s" r.Local_result.db
       r.Local_result.examined r.Local_result.eliminated (work_text r.Local_result.work)
    :: List.map
         (fun (row : Local_result.row) ->
           Printf.sprintf "%s %s %s [%s] [%s] {%s}" row.Local_result.db
             (obj_text row.Local_result.obj)
             (Oid.Goid.to_string row.Local_result.goid)
             (String.concat "," (Array.to_list (Array.map Truth.to_string row.Local_result.truths)))
             (String.concat "; " (List.map unsolved_text row.Local_result.unsolved))
             (String.concat ","
                (Array.to_list
                   (Array.map
                      (function Some v -> Value.to_string v | None -> "_")
                      row.Local_result.values))))
         r.Local_result.rows
    @ List.map (fun (gcls, n) -> Printf.sprintf "touched %s %d" gcls n) touched
    @ Printf.sprintf "probe %s: examined %d %s" p.Probe.db p.Probe.examined
        (work_text p.Probe.work)
      :: List.map unsolved_text p.Probe.items)

(* Whether two results hold the physically same root and blocking
   objects, row by row and item by item. *)
let same_objects (a : Local_result.t) (b : Local_result.t) (p : Probe.t) (q : Probe.t) =
  let same_items xs ys =
    List.compare_lengths xs ys = 0
    && List.for_all2
         (fun (u : Local_result.unsolved) (v : Local_result.unsolved) ->
           u.Local_result.item == v.Local_result.item)
         xs ys
  in
  List.compare_lengths a.Local_result.rows b.Local_result.rows = 0
  && List.for_all2
       (fun (x : Local_result.row) (y : Local_result.row) ->
         x.Local_result.obj == y.Local_result.obj
         && same_items x.Local_result.unsolved y.Local_result.unsolved)
       a.Local_result.rows b.Local_result.rows
  && same_items p.Probe.items q.Probe.items
