open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload
open Msdq_serve
module Optimizer = Msdq_opt.Optimizer
module Metrics = Msdq_obs.Metrics
module Json = Msdq_obs.Json
module S = Bench_section

let log_src = Logs.Src.create "msdq.exp.auto" ~doc:"AUTO strategy sweep"

module Log = (val Logs.src_log log_src : Logs.LOG)

type fixed_run = { f_strategy : Strategy.t; f_makespan_s : float }

type outcome = {
  id : string;
  title : string;
  queries : int;
  distinct : int;
  seed : int;
  spacing_us : float;
  fixed : fixed_run list;
  auto_makespan_s : float;
  decisions : (string * int) list;
  switches : int;
  rank_matches : int;
  rank_match_rate : float;
}

(* Minimum predicted second-best/best response ratio for a candidate to
   count as a query its predicted winner should genuinely win. *)
let min_margin = 1.05

(* The mixed workload: one dense synthetic federation (every database hosts
   every class, a quarter of the attributes missing schema-level, some
   nulls on top) and a set of distinct conjunctive queries chosen so that
   the model predicts {e different} winners with a real margin — the
   workload an adaptive selector exists for. Candidate queries come from
   the synth generator's per-index rng streams; selection is a pure
   function of the seed. *)
let candidate_queries ~seed ~distinct ~cost fed cfg =
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let base = Rng.create ~seed:(seed + 211) in
  let margin_of preds =
    match
      List.sort compare
        (List.map (fun (p : Msdq_opt.Planner.prediction) ->
             Time.to_us p.Msdq_opt.Planner.response)
           preds)
    with
    | best :: second :: _ when best > 0.0 -> second /. best
    | _ -> 1.0
  in
  let candidates =
    List.filter_map
      (fun i ->
        let rng = Rng.split_ix base ~i in
        let query = Synth.random_query rng cfg ~disjunctive:false in
        match Analysis.analyze schema query with
        | exception Analysis.Error _ -> None
        | analysis ->
          let winner, preds =
            Msdq_opt.Planner.choose ~cost
              ~strategies:Optimizer.candidates
              ~objective:Msdq_opt.Planner.Response_time fed analysis
          in
          Some (analysis, winner, margin_of preds))
      (List.init 64 Fun.id)
  in
  (* Round-robin across predicted winners, widest margin first, so the mix
     contains queries every candidate strategy should win. A candidate only
     qualifies for its winner's bucket with a real margin — a near-tie
     (margin ~1.0) is model noise, not a prediction, and would poison the
     rank-match measurement. If too few clear the bar the mix fills from
     the widest-margin leftovers regardless of winner. *)
  let strong = List.filter (fun (_, _, m) -> m >= min_margin) candidates in
  let buckets =
    List.map
      (fun s ->
        ( s,
          ref
            (List.sort
               (fun (_, _, m1) (_, _, m2) -> Float.compare m2 m1)
               (List.filter (fun (_, w, _) -> w = s) strong)) ))
      Optimizer.candidates
  in
  let chosen = ref [] and n = ref 0 in
  let progressed = ref true in
  while !n < distinct && !progressed do
    progressed := false;
    List.iter
      (fun (_, bucket) ->
        match !bucket with
        | (analysis, _, _) :: rest when !n < distinct ->
          bucket := rest;
          chosen := analysis :: !chosen;
          incr n;
          progressed := true
        | _ -> ())
      buckets
  done;
  if !n < distinct then
    List.iter
      (fun (analysis, _, _) ->
        if !n < distinct && not (List.memq analysis !chosen) then begin
          chosen := analysis :: !chosen;
          incr n
        end)
      (List.sort
         (fun (_, _, m1) (_, _, m2) -> Float.compare m2 m1)
         candidates);
  List.rev !chosen

let default_spacing_us = 20_000.0

let run ?registry ?progress ?(queries = 8) ?(distinct = 4) ?(seed = 1996)
    ?(cost = Cost.default) () =
  let id = "auto-sweep" in
  let cfg = { Synth.dense with Synth.seed = (seed * 131) + 7; n_entities = 80 } in
  let fed = Synth.generate cfg in
  let analyses = candidate_queries ~seed ~distinct ~cost fed cfg in
  let distinct = List.length analyses in
  if distinct = 0 then invalid_arg "Auto_sweep: no analyzable queries";
  let analyses_a = Array.of_list analyses in
  let arrivals =
    List.init queries (fun i ->
        (analyses_a.(i mod distinct), Time.us (float_of_int i *. default_spacing_us)))
  in
  (* Caching off: the sweep isolates strategy selection from cache sharing
     (a homogeneous workload re-hits its own extents; a mixed one spreads
     them over strategies — docs/OPTIMIZER.md discusses the bias). *)
  let serve_cfg =
    {
      Serve.default_config with
      Serve.options = { Strategy.default_options with Strategy.cost };
      cache_bytes = 0;
      window = Time.zero;
    }
  in
  let total_steps = List.length Optimizer.candidates + 1 + distinct in
  let done_steps = ref 0 in
  let step () =
    incr done_steps;
    match progress with
    | Some f -> f ~figure:id ~completed:!done_steps ~total:total_steps
    | None -> ()
  in
  let fixed =
    List.map
      (fun s ->
        let jobs =
          List.map
            (fun (analysis, arrival) -> { Serve.strategy = s; analysis; arrival; deadline = None })
            arrivals
        in
        let out = Serve.run serve_cfg fed jobs in
        Log.info (fun m ->
            m "%s: fixed %s makespan %a" id (Strategy.to_string s) Time.pp
              out.Serve.makespan);
        step ();
        { f_strategy = s; f_makespan_s = Time.to_s out.Serve.makespan })
      Optimizer.candidates
  in
  let auto = Serve.run_auto serve_cfg fed arrivals in
  step ();
  let decisions =
    List.map
      (fun s ->
        ( Strategy.to_string s,
          List.length
            (List.filter
               (fun (d : Serve.auto_decision) -> d.Serve.d_chosen = s)
               auto.Serve.decisions) ))
      Optimizer.candidates
  in
  (* Estimator accuracy: per distinct query, does the model's pick match
     the strategy a solo run actually answers fastest with? *)
  let options = serve_cfg.Serve.options in
  let rank_matches =
    List.fold_left
      (fun acc analysis ->
        let predicted =
          (Optimizer.decide ~cost fed analysis).Optimizer.chosen
        in
        let observed =
          List.map
            (fun s ->
              let _, m = Strategy.run ~options s fed analysis in
              (s, Time.to_us m.Strategy.response))
            Optimizer.candidates
        in
        let best =
          fst
            (List.fold_left
               (fun (bs, bt) (s, t) -> if t < bt then (s, t) else (bs, bt))
               (List.hd observed) (List.tl observed))
        in
        step ();
        if best = predicted then acc + 1 else acc)
      0 analyses
  in
  (match registry with
  | Some reg ->
    Metrics.inc
      (Metrics.counter reg ~labels:[ ("figure", id) ] "msdq_auto_queries_total")
      queries
  | None -> ());
  {
    id;
    title = "AUTO vs fixed strategies on a mixed workload";
    queries;
    distinct;
    seed;
    spacing_us = default_spacing_us;
    fixed;
    auto_makespan_s = Time.to_s auto.Serve.auto.Serve.makespan;
    decisions;
    switches = auto.Serve.switches;
    rank_matches;
    rank_match_rate = float_of_int rank_matches /. float_of_int distinct;
  }

let min_fixed_makespan outcome =
  List.fold_left
    (fun acc f -> Float.min acc f.f_makespan_s)
    Float.infinity outcome.fixed

(* ---- reports ---- *)

let to_json a =
  Json.Obj
    [
      ("id", Json.Str a.id);
      ("title", Json.Str a.title);
      ("queries", Json.Int a.queries);
      ("distinct", Json.Int a.distinct);
      ("seed", Json.Int a.seed);
      ("spacing_us", Json.Float a.spacing_us);
      ( "fixed",
        Json.Arr
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("strategy", Json.Str (Strategy.to_string f.f_strategy));
                   ("makespan_s", Json.Float f.f_makespan_s);
                 ])
             a.fixed) );
      ("auto_makespan_s", Json.Float a.auto_makespan_s);
      ( "decisions",
        Json.Arr
          (List.map
             (fun (strategy, count) ->
               Json.Obj [ ("strategy", Json.Str strategy); ("count", Json.Int count) ])
             a.decisions) );
      ("switches", Json.Int a.switches);
      ("rank_matches", Json.Int a.rank_matches);
      ("rank_match_rate", Json.Float a.rank_match_rate);
    ]

let pp ppf a =
  Format.fprintf ppf "%s — %s@.@." a.id a.title;
  Format.fprintf ppf "%d queries (%d distinct), seed %d, %.0fms arrival spacing@.@."
    a.queries a.distinct a.seed (a.spacing_us /. 1e3);
  Format.fprintf ppf "%-8s %12s@." "strategy" "makespan";
  List.iter
    (fun f ->
      Format.fprintf ppf "%-8s %10.2fms@." (Strategy.to_string f.f_strategy)
        (f.f_makespan_s *. 1e3))
    a.fixed;
  Format.fprintf ppf "%-8s %10.2fms@." "AUTO" (a.auto_makespan_s *. 1e3);
  Format.fprintf ppf "@.decisions:";
  List.iter (fun (s, n) -> Format.fprintf ppf " %s=%d" s n) a.decisions;
  Format.fprintf ppf "  switches=%d@." a.switches;
  Format.fprintf ppf "estimator rank matches: %d/%d (%.0f%%)@." a.rank_matches
    a.distinct (a.rank_match_rate *. 100.0)

(* ---- bench section ---- *)

(* Beyond shape, the experiment's win condition: AUTO's makespan is no
   worse than the best fixed strategy's (a relative epsilon absorbs float
   formatting round trips), so a regressing optimizer fails [--check]. *)
let check c =
  ignore (S.int ~min:1 c "queries");
  ignore (S.int ~min:1 c "distinct");
  let best =
    List.fold_left
      (fun acc f ->
        ignore (S.str f "strategy");
        Float.min acc (S.num ~range:S.Nonneg f "makespan_s"))
      Float.infinity
      (S.elements ~nonempty:true (S.field c "fixed"))
  in
  let auto = S.num ~range:S.Nonneg c "auto_makespan_s" in
  if auto > best *. (1.0 +. 1e-9) then
    S.invalid c "regression — AUTO makespan %g s exceeds the best fixed strategy's %g s"
      auto best;
  List.iter
    (fun d ->
      ignore (S.str d "strategy");
      ignore (S.int ~min:0 d "count"))
    (S.elements (S.field c "decisions"));
  ignore (S.int ~min:0 c "switches");
  ignore (S.num ~range:S.Fraction c "rank_match_rate")

let section =
  {
    S.key = "auto_sweep";
    since = 7;
    until = None;
    check;
    bars = [];
    guard = [ "seed"; "queries"; "distinct" ];
    metrics =
      Some
        (fun c ->
          [
            S.Time ("AUTO makespan", S.num c "auto_makespan_s");
            S.Share ("rank-match rate", S.num c "rank_match_rate");
          ]);
  }
