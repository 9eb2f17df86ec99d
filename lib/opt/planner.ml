open Msdq_odb
open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload

type objective = Total_time | Response_time

type prediction = { strategy : Strategy.t; total : Time.t; response : Time.t }

(* Observed selectivity of one predicate, from the federation's data. *)
let pred_selectivity fed (info : Analysis.atom_info) ~gcls =
  let pred = info.Analysis.pred in
  let attr =
    match List.rev pred.Predicate.path with
    | a :: _ -> a
    | [] -> assert false
  in
  Probabilistic.attribute_selectivity fed ~gcls ~attr ~op:pred.Predicate.op
    ~operand:pred.Predicate.operand

(* Fraction of a constituent extent holding null in any of the given
   attributes (per-object missing data beyond schema-level misses). *)
let null_ratio db ~cls ~attrs =
  let total = ref 0 and nulled = ref 0 in
  List.iter
    (fun obj ->
      incr total;
      if
        List.exists
          (fun attr ->
            match Database.field_by_name db obj attr with
            | Some Value.Null -> true
            | Some _ | None -> false)
          attrs
      then incr nulled)
    (Database.extent db cls);
  if !total = 0 then 0.0 else float_of_int !nulled /. float_of_int !total

(* Fraction of root-class entities with more than one copy. *)
let isomerism_ratio fed ~gcls =
  let table = Federation.goids fed in
  let goids = Goid_table.goids_of_class table ~gcls in
  let total = List.length goids in
  if total = 0 then 0.0
  else
    let multi =
      List.length
        (List.filter (fun g -> List.length (Goid_table.locals_of table g) > 1) goids)
    in
    float_of_int multi /. float_of_int total

(* Referenced fraction of a branch class, averaged over root-hosting
   databases (the scan counts the distinct objects actually reachable). *)
let reference_ratios fed analysis =
  let gs = Federation.global_schema fed in
  let root = analysis.Analysis.range_class in
  let per_class : (string, float list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (db_name, db) ->
      match Global_schema.constituent_of gs ~gcls:root ~db:db_name with
      | None -> ()
      | Some _ ->
        List.iter
          (fun (gcls, touched) ->
            if not (String.equal gcls root) then begin
              match Global_schema.constituent_of gs ~gcls ~db:db_name with
              | None -> ()
              | Some local_cls ->
                let size = Database.extent_size db local_cls in
                if size > 0 then begin
                  let ratio = float_of_int touched /. float_of_int size in
                  match Hashtbl.find_opt per_class gcls with
                  | Some l -> l := ratio :: !l
                  | None -> Hashtbl.add per_class gcls (ref [ ratio ])
                end
            end)
          (Local_eval.touched (Local_eval.scan fed analysis ~db:db_name)))
    (Federation.databases fed);
  fun gcls ->
    match Hashtbl.find_opt per_class gcls with
    | Some l ->
      let ratios = !l in
      List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)
    | None -> 1.0

let profile fed (analysis : Analysis.t) =
  let gs = Federation.global_schema fed in
  let schema = Global_schema.schema gs in
  let involved = Involved.compute schema analysis in
  let databases = Federation.databases fed in
  let n_db = List.length databases in
  let r_r_of = reference_ratios fed analysis in
  let build_class gcls =
    let preds = Analysis.predicates_on_class analysis gcls in
    let infos =
      List.filter
        (fun (info : Analysis.atom_info) ->
          List.memq info.Analysis.pred preds)
        analysis.Analysis.atoms
    in
    let n_p = List.length preds in
    let selectivities = List.map (fun info -> pred_selectivity fed info ~gcls) infos in
    let r_ps = List.fold_left ( *. ) 1.0 selectivities in
    let targets_on_class =
      List.length
        (List.filter
           (fun (path, _) ->
             match Path.resolve schema ~root:analysis.Analysis.range_class path with
             | Path.Full (steps, _) -> (
               match List.rev steps with
               | last :: _ -> String.equal last.Path.on_class gcls
               | [] -> false)
             | Path.Cut _ | Path.Invalid _ -> false)
           analysis.Analysis.targets)
    in
    let per_db =
      Array.of_list
        (List.map
           (fun (db_name, db) ->
             match Global_schema.constituent_of gs ~gcls ~db:db_name with
             | None ->
               {
                 Params.n_o = 0;
                 n_qa = 0;
                 n_pa = 0;
                 n_ta = 0;
                 r_pps = 1.0;
                 r_m = 1.0;
                 r_as = 1.0;
                 r_ss = 1.0;
               }
             | Some local_cls ->
               let missing = Global_schema.missing_attrs gs ~gcls ~db:db_name in
               let attr_of (info : Analysis.atom_info) =
                 match List.rev info.Analysis.pred.Predicate.path with
                 | a :: _ -> a
                 | [] -> assert false
               in
               let local_infos, missing_infos =
                 List.partition
                   (fun info -> not (List.mem (attr_of info) missing))
                   infos
               in
               let n_pa = List.length local_infos in
               let local_attrs = List.map attr_of local_infos in
               let r_pps =
                 List.fold_left
                   (fun acc info -> acc *. pred_selectivity fed info ~gcls)
                   1.0 local_infos
               in
               let r_as =
                 List.fold_left
                   (fun acc info -> acc *. pred_selectivity fed info ~gcls)
                   1.0 missing_infos
               in
               let r_m =
                 if missing_infos <> [] then 1.0
                 else null_ratio db ~cls:local_cls ~attrs:local_attrs
               in
               {
                 Params.n_o = Database.extent_size db local_cls;
                 n_qa =
                   Involved.local_projection_width involved gs ~db:db_name ~gcls;
                 n_pa;
                 n_ta = targets_on_class;
                 r_pps;
                 r_m;
                 r_as;
                 (* signatures pre-filter with roughly the checks' own
                    equality selectivity *)
                 r_ss = r_as;
               })
           databases)
    in
    {
      Params.n_p;
      r_ps;
      r_r = r_r_of gcls;
      r_iso = isomerism_ratio fed ~gcls;
      per_db;
    }
  in
  {
    Params.n_db;
    classes =
      Array.of_list (List.map build_class analysis.Analysis.classes_involved);
  }

let default_strategies = [ Strategy.Ca; Strategy.Cf; Strategy.Bl; Strategy.Pl ]

let predict ?(cost = Cost.default) ?(strategies = default_strategies) fed analysis =
  let sample = profile fed analysis in
  List.map
    (fun strategy ->
      let t = Param_sim.simulate ~cost strategy sample in
      { strategy; total = t.Param_sim.total; response = t.Param_sim.response })
    strategies

let choose ?cost ?strategies ~objective fed analysis =
  let predictions = predict ?cost ?strategies fed analysis in
  let key p =
    match objective with
    | Total_time -> Time.to_us p.total
    | Response_time -> Time.to_us p.response
  in
  let sorted = List.sort (fun a b -> Float.compare (key a) (key b)) predictions in
  match sorted with
  | best :: _ -> (best.strategy, sorted)
  | [] -> invalid_arg "Planner.choose: no strategies"

let pp_prediction ppf p =
  Format.fprintf ppf "%-4s predicted total %a, response %a"
    (Strategy.to_string p.strategy)
    Time.pp p.total Time.pp p.response
