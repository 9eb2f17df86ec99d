open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload
open Msdq_serve
module Metrics = Msdq_obs.Metrics
module Json = Msdq_obs.Json
module S = Bench_section

let log_src = Logs.Src.create "msdq.exp.overload" ~doc:"overload-robustness sweep"

module Log = (val Logs.src_log log_src : Logs.LOG)

type point = {
  pt_policy : string;
  pt_multiplier : float;
  pt_offered : int;
  pt_admitted : int;
  pt_shed : int;
  pt_goodput : float;
  pt_deadline_hits : int;
  pt_hit_rate : float;
  pt_p50_ms : float;
  pt_p99_ms : float;
  pt_demoted_rows : int;
  pt_abandoned_checks : int;
}

type outcome = {
  id : string;
  title : string;
  seed : int;
  queries : int;
  queue_limit : int;
  solo_response_ms : float;
  deadline_ms : float;
  multipliers : float array;
  policies : string list;
  points : point list;
  cap_p99_ms : float;
}

(* The naive baseline row: unbounded queue, no deadline — what serving
   looked like before this PR. *)
let naive_policy = "naive"

let multipliers = [| 0.5; 1.0; 2.0; 3.0 |]

(* Deadline budget and shed threshold, as factors of the calibrated solo
   response. The budget sits below the 2x tail bound the validator
   enforces, so deadline truncation structurally caps admitted latency;
   the depth-2 queue admits at most one queued query behind the one in
   virtual service. *)
let deadline_factor = 1.8
let queue_limit = 2

(* Same dense single-case generation as the serve sweep: every database
   hosts every class, a quarter of the attributes missing, so BL issues
   real check round trips — the work deadlines abandon. *)
let rec make_case seed attempt =
  if attempt > 20 then None
  else
    let cfg =
      {
        Synth.default with
        Synth.seed = (seed * 37) + attempt;
        n_entities = 60;
        p_host = 1.0;
        p_attr_present = 0.75;
        p_null = 0.12;
        p_copy = 0.4;
      }
    in
    let fed = Synth.generate cfg in
    let rng = Rng.create ~seed:(seed + (attempt * 1013)) in
    let query = Synth.random_query rng cfg ~disjunctive:false in
    let schema = Global_schema.schema (Federation.global_schema fed) in
    match Analysis.analyze schema query with
    | analysis -> Some (fed, analysis)
    | exception Analysis.Error _ -> make_case seed (attempt + 1)

let percentile_ms lats_us p =
  match lats_us with
  | [] -> 0.0
  | l ->
      let s = Stats.summarize l in
      (match p with
      | `P50 -> s.Stats.p50_us
      | `P99 -> s.Stats.p99_us)
      /. 1000.0

(* One (policy, multiplier) cell: [queries] identical BL jobs spaced
   [solo / multiplier] apart. Pure in its arguments — the pool can run
   cells in any order on any number of domains without changing a bit of
   the outcome. *)
let point ~cost ~fed ~analysis ~queries ~solo_us ~deadline_us ~policy
    ~multiplier =
  let spacing = solo_us /. multiplier in
  let jobs =
    List.init queries (fun i ->
        {
          Serve.strategy = Strategy.Bl;
          analysis;
          arrival = Time.us (float_of_int i *. spacing);
          deadline = None;
        })
  in
  let base =
    {
      Serve.default_config with
      Serve.options = { Strategy.default_options with Strategy.cost };
      cache_bytes = 0;
      window = Time.zero;
    }
  in
  let cfg =
    if String.equal policy naive_policy then base
    else
      match Serve.shed_policy_of_string policy with
      | Error e -> invalid_arg ("Overload_sweep: " ^ e)
      | Ok p ->
          {
            base with
            Serve.deadline = Some (Time.us deadline_us);
            queue_limit = Some queue_limit;
            shed_policy = p;
          }
  in
  let out = Serve.run cfg fed jobs in
  let admitted = List.length out.Serve.reports in
  let lats_us =
    List.map (fun r -> Time.to_us r.Serve.latency) out.Serve.reports
  in
  let deadline_hits =
    List.length
      (List.filter
         (fun (r : Serve.query_report) ->
           r.Serve.deadline_demoted = 0
           && Time.to_us r.Serve.latency <= deadline_us)
         out.Serve.reports)
  in
  let demoted =
    List.fold_left
      (fun acc (r : Serve.query_report) -> acc + r.Serve.deadline_demoted)
      0 out.Serve.reports
  in
  let makespan_s = Time.to_s out.Serve.makespan in
  {
    pt_policy = policy;
    pt_multiplier = multiplier;
    pt_offered = queries;
    pt_admitted = admitted;
    pt_shed = List.length out.Serve.shed;
    pt_goodput =
      (if makespan_s > 0.0 then float_of_int admitted /. makespan_s else 0.0);
    pt_deadline_hits = deadline_hits;
    pt_hit_rate =
      (if admitted > 0 then
         float_of_int deadline_hits /. float_of_int admitted
       else 0.0);
    pt_p50_ms = percentile_ms lats_us `P50;
    pt_p99_ms = percentile_ms lats_us `P99;
    pt_demoted_rows = demoted;
    pt_abandoned_checks =
      Metrics.total out.Serve.registry "msdq_checks_abandoned_total";
  }

let policies =
  naive_policy :: List.map Serve.shed_policy_to_string Serve.shed_policies

let run ?pool ?registry ?progress ?(queries = 16) ?(seed = 1996)
    ?(cost = Cost.default) () =
  let id = "overload-sweep" in
  match make_case seed 0 with
  | None -> invalid_arg "Overload_sweep: no analyzable case for this seed"
  | Some (fed, analysis) ->
      (* Calibrate capacity: the realized solo response of one served BL
         query is the service time offered load is measured against. *)
      let solo_out =
        Serve.run
          {
            Serve.default_config with
            Serve.options = { Strategy.default_options with Strategy.cost };
            cache_bytes = 0;
            window = Time.zero;
          }
          fed
          [
            {
              Serve.strategy = Strategy.Bl;
              analysis;
              arrival = Time.zero;
              deadline = None;
            };
          ]
      in
      let solo_us =
        match solo_out.Serve.reports with
        | [ r ] -> Time.to_us r.Serve.latency
        | _ -> invalid_arg "Overload_sweep: calibration run lost its query"
      in
      let deadline_us = deadline_factor *. solo_us in
      let grid =
        Array.of_list
          (List.concat_map
             (fun policy ->
               Array.to_list
                 (Array.map (fun m -> (policy, m)) multipliers))
             policies)
      in
      let total = Array.length grid in
      let completed = Atomic.make 0 in
      let feedback_mutex = Mutex.create () in
      let cell (policy, multiplier) =
        let r =
          point ~cost ~fed ~analysis ~queries ~solo_us ~deadline_us ~policy
            ~multiplier
        in
        let done_now = 1 + Atomic.fetch_and_add completed 1 in
        Mutex.lock feedback_mutex;
        Log.info (fun m ->
            m "%s: %s x%.1f done (%d/%d): p99 %.1f ms, %d/%d admitted" id
              policy multiplier done_now total r.pt_p99_ms r.pt_admitted
              queries);
        (match progress with
        | Some f -> f ~figure:id ~completed:done_now ~total
        | None -> ());
        Mutex.unlock feedback_mutex;
        r
      in
      let points =
        match pool with
        | Some pool when Msdq_par.Pool.jobs pool > 1 ->
            Array.to_list
              (Msdq_par.Pool.map_array pool ~f:(fun _ g -> cell g) grid)
        | Some _ | None -> Array.to_list (Array.map cell grid)
      in
      let cap_p99_ms =
        match
          List.find_opt
            (fun p ->
              String.equal p.pt_policy
                (Serve.shed_policy_to_string Serve.Reject_newest)
              && p.pt_multiplier = 1.0)
            points
        with
        | Some p -> p.pt_p99_ms
        | None -> 0.0
      in
      (match registry with
      | Some reg ->
          Metrics.inc
            (Metrics.counter reg
               ~labels:[ ("figure", id) ]
               "msdq_overload_points_total")
            total
      | None -> ());
      {
        id;
        title = "Goodput and tail latency vs offered load and shed policy";
        seed;
        queries;
        queue_limit;
        solo_response_ms = solo_us /. 1000.0;
        deadline_ms = deadline_us /. 1000.0;
        multipliers;
        policies;
        points;
        cap_p99_ms;
      }

let points_of outcome policy =
  List.filter (fun p -> String.equal p.pt_policy policy) outcome.points

(* ---- reports ---- *)

let to_json o =
  Json.Obj
    [
      ("id", Json.Str o.id);
      ("title", Json.Str o.title);
      ("seed", Json.Int o.seed);
      ("queries", Json.Int o.queries);
      ("queue_limit", Json.Int o.queue_limit);
      ("solo_response_ms", Json.Float o.solo_response_ms);
      ("deadline_ms", Json.Float o.deadline_ms);
      ("cap_p99_ms", Json.Float o.cap_p99_ms);
      ( "multipliers",
        Json.Arr (List.map (fun m -> Json.Float m) (Array.to_list o.multipliers)) );
      ("policies", Json.Arr (List.map (fun p -> Json.Str p) o.policies));
      ( "points",
        Json.Arr
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("policy", Json.Str p.pt_policy);
                   ("multiplier", Json.Float p.pt_multiplier);
                   ("offered", Json.Int p.pt_offered);
                   ("admitted", Json.Int p.pt_admitted);
                   ("shed", Json.Int p.pt_shed);
                   ("goodput_qps", Json.Float p.pt_goodput);
                   ("deadline_hits", Json.Int p.pt_deadline_hits);
                   ("hit_rate", Json.Float p.pt_hit_rate);
                   ("p50_ms", Json.Float p.pt_p50_ms);
                   ("p99_ms", Json.Float p.pt_p99_ms);
                   ("demoted_rows", Json.Int p.pt_demoted_rows);
                   ("abandoned_checks", Json.Int p.pt_abandoned_checks);
                 ])
             o.points) );
    ]

let pp ppf o =
  Format.fprintf ppf "%s — %s@.@." o.id o.title;
  Format.fprintf ppf
    "%d queries per cell, seed %d; capacity (solo response) %.2fms, deadline \
     %.2fms, queue depth %d@.@."
    o.queries o.seed o.solo_response_ms o.deadline_ms o.queue_limit;
  Format.fprintf ppf "%-14s %5s %8s %5s %9s %5s %9s %9s %8s@." "policy" "load"
    "admitted" "shed" "goodput" "hit" "p50" "p99" "abandon";
  List.iter
    (fun pt ->
      Format.fprintf ppf
        "%-14s %4.1fx %5d/%-2d %5d %7.1f/s %5.2f %7.2fms %7.2fms %8d@."
        pt.pt_policy pt.pt_multiplier pt.pt_admitted pt.pt_offered pt.pt_shed
        pt.pt_goodput pt.pt_hit_rate pt.pt_p50_ms pt.pt_p99_ms
        pt.pt_abandoned_checks)
    o.points;
  Format.fprintf ppf
    "@.at-capacity p99 %.2fms; rejecting policies hold p99 within %.2fms at \
     every overloaded point@."
    o.cap_p99_ms (2.0 *. o.cap_p99_ms)

(* ---- bench section ---- *)

(* The robustness win condition: the naive unbounded baseline's p99 grows
   monotonically with offered load and blows past twice the at-capacity
   p99, while every rejecting shed policy keeps the p99 of admitted
   queries within that 2x bound at every overloaded point. [degrade]
   admits everything and trades latency for it, so its rows are reported
   but not bounded. *)
let check c =
  let cap = S.num ~range:S.Positive c "cap_p99_ms" in
  let points =
    List.map
      (fun p ->
        ignore (S.int ~min:0 p "admitted");
        ignore (S.int ~min:0 p "shed");
        ignore (S.num ~range:S.Nonneg p "goodput_qps");
        (S.str p "policy", S.num p "multiplier", S.num ~range:S.Nonneg p "p99_ms"))
      (S.elements ~nonempty:true (S.field c "points"))
  in
  let row policy =
    List.sort
      (fun (_, a, _) (_, b, _) -> Float.compare a b)
      (List.filter (fun (p, _, _) -> String.equal p policy) points)
  in
  let naive = row naive_policy in
  if naive = [] then S.invalid c "has no %S baseline row" naive_policy;
  let worst =
    List.fold_left
      (fun prev (_, m, p99) ->
        if p99 +. 1e-9 < prev then
          S.invalid c "naive p99 must grow with load but drops to %g ms at x%g" p99 m;
        p99)
      0.0 naive
  in
  if worst <= 2.0 *. cap then
    S.invalid c
      "naive p99 %g ms never exceeds twice the at-capacity p99 %g ms — the \
       sweep is not overloaded"
      worst cap;
  List.iter
    (fun policy ->
      List.iter
        (fun (_, m, p99) ->
          if m >= 2.0 && p99 > 2.0 *. cap *. (1.0 +. 1e-9) then
            S.invalid c
              "tail-bound regression — %s p99 %g ms at x%g exceeds twice the \
               at-capacity p99 %g ms"
              policy p99 m cap)
        (row policy))
    (List.map Serve.shed_policy_to_string [ Serve.Reject_newest; Serve.Reject_oldest ])

let section =
  {
    S.key = "overload_sweep";
    since = 8;
    check;
    bars = [];
    guard = [ "seed"; "queries"; "queue_limit" ];
    metrics =
      Some
        (fun c ->
          let controlled =
            List.filter_map
              (fun p ->
                if String.equal (S.str p "policy") naive_policy then None
                else Some (S.num p "goodput_qps"))
              (S.elements (S.field c "points"))
          in
          [
            S.Time ("at-capacity p99", S.num c "cap_p99_ms");
            S.Rate ("mean controlled goodput", S.mean controlled);
          ]);
  }
