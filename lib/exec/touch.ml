open Msdq_odb
open Msdq_fed
open Msdq_query

let count ?(tracer = Msdq_obs.Tracer.disabled) fed (analysis : Analysis.t)
    ~db:db_name =
  Msdq_obs.Tracer.with_span tracer ~cat:"touch"
    ~args:[ ("db", db_name) ]
    "touch.count"
  @@ fun () ->
  let gs = Federation.global_schema fed in
  let db = Federation.db fed db_name in
  let root_gcls = analysis.Analysis.range_class in
  let root_cls =
    match Global_schema.constituent_of gs ~gcls:root_gcls ~db:db_name with
    | Some cls -> cls
    | None ->
      invalid_arg
        (Printf.sprintf "Touch.count: %s has no constituent of %s" db_name
           root_gcls)
  in
  (* Every object reached through a reference, marked by LOid. *)
  let touched = Bitset.create (Database.cardinality db) in
  let note obj = Bitset.set touched (Oid.Loid.to_int (Dbobject.loid obj)) in
  let walks =
    List.map
      (fun path -> Slot_path.resolve db path)
      (List.map fst analysis.Analysis.targets
      @ List.map
          (fun info -> info.Analysis.pred.Predicate.path)
          analysis.Analysis.atoms)
  in
  Extent.iter
    (fun obj -> List.iter (fun walk -> Slot_path.iter_refs walk obj note) walks)
    (Database.extent_handle db root_cls);
  (* Report per global class: the root's full extent, branch classes by
     how many of their objects were marked. *)
  let marked cls =
    let n = ref 0 in
    Extent.iter
      (fun obj ->
        if Bitset.mem touched (Oid.Loid.to_int (Dbobject.loid obj)) then incr n)
      (Database.extent_handle db cls);
    !n
  in
  List.filter_map
    (fun gcls ->
      if String.equal gcls root_gcls then
        Some (gcls, Database.extent_size db root_cls)
      else
        match Global_schema.constituent_of gs ~gcls ~db:db_name with
        | None -> None
        | Some local_cls -> Some (gcls, marked local_cls))
    analysis.Analysis.classes_involved
