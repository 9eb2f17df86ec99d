(* The list-based certification that [Certify.run] replaced, kept as the
   test oracle: it groups each entity's rows in a GOid hash table, indexes
   the verdicts by a polymorphic (database, LOid, atom) tuple and scans
   database-name lists for absent isomers. It shares no grouping, keying or
   stamping code with [Certify.run]; only [Certify.outcome], [Cond] and
   [Answer] are common. [run ~results ~verdicts] must return what
   [Certify.run] returns: the same answer rows, counters and meter totals
   ([render]). [inputs] builds a localized strategy's certification inputs
   for the tests and test/layer_timing.ml. *)

open Msdq_odb
open Msdq_fed
open Msdq_query
open Msdq_exec

let combine ~multi_valued ~conflicts a b =
  match (a, b) with
  | Truth.Unknown, t | t, Truth.Unknown -> t
  | Truth.True, Truth.True -> Truth.True
  | Truth.False, Truth.False -> Truth.False
  | Truth.False, Truth.True | Truth.True, Truth.False ->
    if multi_valued then Truth.True
    else begin
      incr conflicts;
      Truth.False
    end

let run ?(multi_valued = false) fed (analysis : Analysis.t) ~results ~verdicts =
  let table = Federation.goids fed in
  let meter = Meter.create () in
  let conflicts = ref 0 in
  let n_atoms = List.length analysis.Analysis.atoms in
  let n_targets = List.length analysis.Analysis.targets in
  let where =
    Cond.index
      (Array.of_list
         (List.map (fun info -> info.Analysis.pred) analysis.Analysis.atoms))
      analysis.Analysis.query.Ast.where
  in
  (* Database names become small ints, numbered on first sight. *)
  let db_ids = ref [] in
  let db_id name =
    match List.find_opt (fun (n, _) -> String.equal n name) !db_ids with
    | Some (_, id) -> id
    | None ->
      let id = List.length !db_ids in
      db_ids := (name, id) :: !db_ids;
      id
  in
  (* Index the verdicts by (origin db, item, atom); several assistants can
     answer about the same item. *)
  let verdict_index : (int * int * int, Truth.t ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (v : Checks.verdict) ->
      let key =
        ( db_id v.Checks.origin_db,
          Oid.Loid.to_int v.Checks.item,
          v.Checks.atom )
      in
      Meter.add_accesses meter 1;
      match Hashtbl.find_opt verdict_index key with
      | Some r -> r := combine ~multi_valued ~conflicts !r v.Checks.truth
      | None -> Hashtbl.add verdict_index key (ref v.Checks.truth))
    verdicts;
  (* Group the local rows per entity. *)
  let by_goid : Local_result.row list ref Oid.Goid.Table.t =
    Oid.Goid.Table.create
      (List.fold_left
         (fun n (r : Local_result.t) -> n + List.length r.Local_result.rows)
         0 results)
  in
  let goid_order = ref [] in
  List.iter
    (fun (res : Local_result.t) ->
      List.iter
        (fun (row : Local_result.row) ->
          Meter.add_accesses meter 1;
          match Oid.Goid.Table.find_opt by_goid row.Local_result.goid with
          | Some r -> r := row :: !r
          | None ->
            Oid.Goid.Table.add by_goid row.Local_result.goid (ref [ row ]);
            goid_order := row.Local_result.goid :: !goid_order)
        res.Local_result.rows)
    results;
  let result_dbs = List.map (fun (r : Local_result.t) -> r.Local_result.db) results in
  let promoted = ref 0 and eliminated = ref 0 in
  let rows = ref [] in
  let assemble goid =
    let group = List.rev !(Oid.Goid.Table.find by_goid goid) in
    (* Elimination through an absent isomer: if a database that hosts the
       root class holds an isomeric object of this entity but did not
       return it, its local predicates definitely failed there. *)
    let missing_somewhere =
      List.exists
        (fun (db, _) ->
          List.exists (String.equal db) result_dbs
          && not
               (List.exists
                  (fun (r : Local_result.row) -> String.equal db r.Local_result.db)
                  group))
        (Goid_table.locals_of table ~meter goid)
    in
    if missing_somewhere then incr eliminated
    else begin
      (* Merge per-atom truths across databases, then apply check verdicts
         to the still-unsolved entries. *)
      let merged = Array.make n_atoms Truth.Unknown in
      List.iter
        (fun (row : Local_result.row) ->
          Array.iteri
            (fun i t ->
              Meter.add_accesses meter 1;
              merged.(i) <- combine ~multi_valued ~conflicts merged.(i) t)
            row.Local_result.truths)
        group;
      List.iter
        (fun (row : Local_result.row) ->
          let db = db_id row.Local_result.db in
          List.iter
            (fun (u : Local_result.unsolved) ->
              let key =
                ( db,
                  Oid.Loid.to_int (Dbobject.loid u.Local_result.item),
                  u.Local_result.atom )
              in
              Meter.add_accesses meter 1;
              match Hashtbl.find_opt verdict_index key with
              | Some r ->
                merged.(u.Local_result.atom) <-
                  combine ~multi_valued ~conflicts merged.(u.Local_result.atom) !r
              | None -> ())
            row.Local_result.unsolved)
        group;
      let truth = Cond.eval_indexed merged where in
      match truth with
      | Truth.False -> incr eliminated
      | (Truth.True | Truth.Unknown) as t ->
        let was_locally_solved =
          List.exists Local_result.is_solved group
        in
        if Truth.equal t Truth.True && not was_locally_solved then incr promoted;
        (* Merge target projections: first locally-derived value wins. *)
        let values =
          Array.make n_targets Value.Null
        in
        for i = 0 to n_targets - 1 do
          let v =
            List.find_map
              (fun (row : Local_result.row) ->
                Meter.add_accesses meter 1;
                match row.Local_result.values.(i) with
                | Some v when not (Value.is_null v) -> Some v
                | Some _ | None -> None)
              group
          in
          match v with Some v -> values.(i) <- v | None -> ()
        done;
        let status =
          match t with
          | Truth.True -> Answer.Certain
          | Truth.Unknown -> Answer.Maybe
          | Truth.False -> assert false
        in
        rows := { Answer.goid; values = Array.to_list values; status } :: !rows
    end
  in
  List.iter assemble (List.rev !goid_order);
  let answer =
    Answer.make ~targets:(List.map fst analysis.Analysis.targets) (List.rev !rows)
  in
  {
    Certify.answer;
    promoted = !promoted;
    eliminated = !eliminated;
    conflicts = !conflicts;
    work = Meter.read meter;
    goid_lookups = (Meter.read meter).Meter.goid_lookups;
  }

(* A localized strategy's certification inputs, as [Strategy.run] builds
   them: the local results in plan order, then the local verdicts and every
   batch's served verdicts. *)
let inputs ~parallel ~signatures fed analysis =
  let p =
    Strategy.plan_localized ?signatures ~tracer:Msdq_obs.Tracer.disabled
      Cost.default ~parallel ~checks:true fed analysis
  in
  (p.Strategy.results, Strategy.full_verdicts p)

(* An outcome as text: its counters and meter totals, then one line per
   answer row. *)
let render (o : Certify.outcome) =
  let w = o.Certify.work in
  String.concat "\n"
    (Printf.sprintf
       "promoted %d eliminated %d conflicts %d comparisons %d accesses %d goid lookups %d/%d"
       o.Certify.promoted o.Certify.eliminated o.Certify.conflicts w.Meter.comparisons
       w.Meter.accesses w.Meter.goid_lookups o.Certify.goid_lookups
    :: List.map
         (fun (r : Answer.row) ->
           Printf.sprintf "%s %s %s" (Oid.Goid.to_string r.Answer.goid)
             (Answer.status_to_string r.Answer.status)
             (String.concat "," (List.map Value.to_string r.Answer.values)))
         (Answer.rows o.Certify.answer))
