open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
module Store = Msdq_telemetry.Store

let candidates = [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]

type score = {
  strategy : Strategy.t;
  predicted_us : float;
  pred_ratio : float;
  observed : (float * float) option;
  blended : float;
}

type cause = Breaker_open | Gray_site

type decision = {
  preferred : Strategy.t;
  chosen : Strategy.t;
  switched : bool;
  scores : score list;
  predictions : Planner.prediction list;
  reason : string option;
  cause : cause option;
}

(* How many query observations it takes for the store's evidence to weigh
   as much as the model: beta = w / (w + prior). *)
let observation_prior = 4.0

let check_sites fed (analysis : Analysis.t) =
  let gs = Federation.global_schema fed in
  List.filter_map
    (fun (db_name, _db) ->
      if
        List.exists
          (fun gcls ->
            Global_schema.constituent_of gs ~gcls ~db:db_name <> None)
          analysis.Analysis.classes_involved
      then Some (Federation.site_of fed db_name)
      else None)
    (Federation.databases fed)

let localized = function
  | Strategy.Bl | Strategy.Pl | Strategy.Bls | Strategy.Pls | Strategy.Lo ->
    true
  | Strategy.Ca | Strategy.Cf -> false

let argmin scores =
  match scores with
  | [] -> invalid_arg "Optimizer: no candidate strategies"
  | first :: rest ->
    (* strict [<]: ties resolve to the earliest candidate (CA first) *)
    List.fold_left
      (fun best s -> if s.blended < best.blended then s else best)
      first rest

let decide ?cost ?predictions ?store ?(objective = Planner.Response_time)
    ?(degraded = []) ?(gray = []) ?(overload = 0.0) fed analysis =
  if not (Float.is_finite overload) || overload < 0.0 then
    invalid_arg "Optimizer.decide: overload must be non-negative and finite";
  let predictions =
    match predictions with
    | Some p -> p
    | None -> Planner.predict ?cost ~strategies:candidates fed analysis
  in
  let key (p : Planner.prediction) =
    match objective with
    | Planner.Total_time -> Time.to_us p.Planner.total
    | Planner.Response_time -> Time.to_us p.Planner.response
  in
  let preds = List.map (fun p -> (p.Planner.strategy, key p)) predictions in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let mean_pred = mean (List.map snd preds) in
  let observed_of st =
    match store with
    | None -> None
    | Some s -> Store.strategy_latency s ~strategy:(Strategy.to_string st)
  in
  let observed = List.map (fun (st, _) -> (st, observed_of st)) preds in
  let obs_means = List.filter_map (fun (_, o) -> Option.map fst o) observed in
  let mean_obs = if obs_means = [] then None else Some (mean obs_means) in
  let scores =
    List.map
      (fun (st, pred_us) ->
        let pred_ratio =
          if mean_pred > 0.0 then pred_us /. mean_pred else 1.0
        in
        let obs = List.assoc st observed in
        let blended =
          match (obs, mean_obs) with
          | Some (lat, w), Some m when m > 0.0 && w > 0.0 ->
            let beta = w /. (w +. observation_prior) in
            ((1.0 -. beta) *. pred_ratio) +. (beta *. (lat /. m))
          | _ -> pred_ratio
        in
        (* Backpressure: under overload, expensive plans are penalized in
           proportion to their predicted cost, shifting the argmin toward
           the cheapest candidate as pressure rises. Zero overload leaves
           every score untouched. *)
        let blended = blended +. (overload *. pred_ratio) in
        { strategy = st; predicted_us = pred_us; pred_ratio; observed = obs;
          blended })
      preds
  in
  let preferred = (argmin scores).strategy in
  let targets_among pool =
    if pool = [] || not (localized preferred) then []
    else List.filter (fun s -> List.mem s pool) (check_sites fed analysis)
  in
  let degraded_targets = targets_among degraded in
  let gray_targets =
    (* Breaker-dead sites already force the fallback; the gray signal only
       matters for sites that are nominally alive but slow. *)
    List.filter (fun s -> not (List.mem s degraded_targets))
      (targets_among gray)
  in
  let sites l =
    String.concat "," (List.map string_of_int (List.sort_uniq compare l))
  in
  match (degraded_targets, gray_targets) with
  | [], [] ->
    {
      preferred;
      chosen = preferred;
      switched = false;
      scores;
      predictions;
      reason = None;
      cause = None;
    }
  | (_ :: _), _ ->
    {
      preferred;
      chosen = Strategy.Ca;
      switched = true;
      scores;
      predictions;
      reason =
        Some
          (Printf.sprintf "breaker open for site(s) %s: falling back to CA"
             (sites degraded_targets));
      cause = Some Breaker_open;
    }
  | [], (_ :: _) ->
    {
      preferred;
      chosen = Strategy.Ca;
      switched = true;
      scores;
      predictions;
      reason =
        Some
          (Printf.sprintf
             "check site(s) %s gray (slow but up): falling back to CA"
             (sites gray_targets));
      cause = Some Gray_site;
    }

let pp_decision ppf d =
  Format.fprintf ppf "@[<v>AUTO chose %s (model preferred %s)%s@,"
    (Strategy.to_string d.chosen)
    (Strategy.to_string d.preferred)
    (match d.reason with Some r -> " — " ^ r | None -> "");
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-4s predicted %10.0f us  score %.3f%s@,"
        (Strategy.to_string s.strategy)
        s.predicted_us s.blended
        (match s.observed with
        | Some (lat, w) ->
          Printf.sprintf "  (observed %.0f us, weight %.1f)" lat w
        | None -> ""))
    d.scores;
  Format.fprintf ppf "@]"
