open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload
open Msdq_serve
module Metrics = Msdq_obs.Metrics
module Store = Msdq_telemetry.Store
module Fault = Msdq_fault.Fault
module Json = Msdq_obs.Json
module S = Bench_section

let log_src = Logs.Src.create "msdq.exp.gray" ~doc:"gray-failure tolerance sweep"

module Log = (val Logs.src_log log_src : Logs.LOG)

type point = {
  pt_policy : string;
  pt_kind : string;
  pt_severity : string;
  pt_queries : int;
  pt_demoted_rows : int;
  pt_abandoned_checks : int;
  pt_mean_ms : float;
  pt_p99_ms : float;
  pt_gray_sites : int;
}

type outcome = {
  id : string;
  title : string;
  seed : int;
  queries : int;
  drop : float;
  static_timeout_ms : float;
  kinds : string list;
  severities : string list;
  policies : string list;
  points : point list;
}

let static_policy = "static"
let adaptive_policy = "adaptive"
let policies = [ static_policy; adaptive_policy ]
let slowdown = "slowdown"
let kinds = [ slowdown; "jitter"; "flap"; "oneway" ]
let severities = [ "mild"; "severe" ]

(* Every cell shares a baseline lossy link (so retransmission waits exist
   for the timeout policy to shrink) on top of its gray fault. *)
let base_drop = 0.3

(* Gap between job arrivals. Wide enough that queries do not queue behind
   each other even when the severe slowdown stretches service times —
   queueing delay is identical under both timeout policies and would only
   dilute the relative response-time difference the sweep measures —
   while the gray windows anchored to the stream's span still catch some
   queries inside them and some outside. *)
let spacing_us = 700_000.0

(* Win condition margin: on the slowdown cells the adaptive arm's mean
   response must undercut the static arm's by at least this fraction. *)
let response_margin = 0.05

(* The static arm's retransmission timeout. An operator picking one fixed
   timeout must size it for the worst round trip the deployment can see —
   here the severe slowdown window — so it sits at the classic
   conservative initial-RTO scale, orders of magnitude above the adaptive
   clamp ceiling [Strategy.default_adaptive.hi]. The adaptive arm tracks
   the observed per-link latency instead and never waits longer than that
   ceiling, which is where the response-time win comes from; the drop
   draws ignore the timeout entirely, so both arms lose (and demote)
   exactly the same legs. *)
let static_timeout_us = 100_000.0

(* Same dense single-case generation as the serve/overload sweeps: every
   database hosts every class and a quarter of the attributes are missing,
   so BL issues real check round trips — the legs gray faults degrade. *)
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
    | analysis ->
        (* A case whose BL plan issues no check round trips cannot
           exercise retransmission timeouts at all: probe one fault-free
           serve and skip the case unless real checks go on the wire. *)
        let probe =
          Serve.run
            { Serve.default_config with cache_bytes = 0; window = Time.zero }
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
        if probe.Serve.check_latency <> [] then Some (fed, analysis)
        else make_case seed (attempt + 1)
    | exception Analysis.Error _ -> make_case seed (attempt + 1)

(* The gray schedule of one (kind, severity) cell: explicit windows over
   the database sites, anchored to the job stream's horizon, plus the
   shared lossy link. Deterministic — no draws besides the schedule's own
   per-transfer hash. *)
let schedule ~seed ~kind ~severity ~sites ~horizon_us =
  let links =
    List.map
      (fun s ->
        {
          Fault.dst = s;
          drop = base_drop;
          inflate = 1.0;
          jitter =
            (match kind with
            | "jitter" -> if severity = "severe" then 4.0 else 1.0
            | _ -> 0.0);
        })
      sites
  in
  let span lo hi =
    [
      {
        Fault.down = Time.us (lo *. horizon_us);
        up = Time.us (hi *. horizon_us);
      };
    ]
  in
  let slowdowns =
    match kind with
    | "slowdown" ->
        (* Severity raises the slowdown factor over the same busy window,
           so the severe cell is a strictly grayer version of the mild
           one rather than a longer outage. *)
        let factor, lo, hi =
          if severity = "severe" then (4.0, 0.1, 0.7) else (2.0, 0.1, 0.7)
        in
        List.map
          (fun s -> { Fault.slow_site = s; factor; busy = span lo hi })
          sites
    | _ -> []
  in
  let outages =
    match kind with
    | "flap" ->
        let duty = if severity = "severe" then 0.5 else 0.2 in
        let train =
          Fault.flap_train ~from:Time.zero ~until:(Time.us horizon_us)
            ~period:(Time.us (4.0 *. spacing_us))
            ~duty
        in
        List.map (fun s -> { Fault.site = s; outages = train }) sites
    | _ -> []
  in
  let partitions =
    match kind with
    | "oneway" ->
        let targets, lo, hi =
          if severity = "severe" then (sites, 0.1, 0.7)
          else
            ((match sites with s :: _ -> [ s ] | [] -> []), 0.2, 0.5)
        in
        List.map
          (fun s ->
            {
              Fault.part_site = s;
              direction = Fault.Outbound;
              cut = span lo hi;
            })
          targets
    | _ -> []
  in
  { Fault.seed; sites = outages; links; slowdowns; partitions }

let percentile_ms lats_us p =
  match lats_us with
  | [] -> 0.0
  | l ->
      let s = Stats.summarize l in
      (match p with
      | `Mean -> s.Stats.mean_us
      | `P99 -> s.Stats.p99_us)
      /. 1000.0

let config ~cost ~sched ~static_timeout_us ~retry_adaptive ~latency_of =
  {
    Serve.default_config with
    Serve.options =
      {
        Strategy.default_options with
        Strategy.cost;
        fault = sched;
        retry =
          {
            Strategy.default_retry with
            Strategy.timeout = Time.us static_timeout_us;
            adaptive = retry_adaptive;
          };
        latency_of;
      };
    cache_bytes = 0;
    window = Time.zero;
  }

(* One (policy, kind, severity) cell. The adaptive arm first runs the cell
   once under the static policy (the warmup), records the per-link
   check-leg latencies into a fresh telemetry store, and feeds them back
   through [options.latency_of] — the full telemetry loop, not an oracle.
   Pure in its arguments, so the pool can run cells in any order. *)
let point ~cost ~fed ~analysis ~queries ~seed ~policy ~kind ~severity =
  let jobs =
    List.init queries (fun i ->
        {
          Serve.strategy = Strategy.Bl;
          analysis;
          arrival = Time.us (float_of_int i *. spacing_us);
          deadline = None;
        })
  in
  let horizon_us = float_of_int queries *. spacing_us in
  let sites =
    List.map
      (fun (db, _) -> Federation.site_of fed db)
      (Federation.databases fed)
  in
  let sched = schedule ~seed ~kind ~severity ~sites ~horizon_us in
  let retry_adaptive, latency_of =
    if String.equal policy adaptive_policy then begin
      let store = Store.create () in
      let warm =
        Serve.run
          (config ~cost ~sched ~static_timeout_us ~retry_adaptive:None
             ~latency_of:None)
          fed jobs
      in
      (* The warmup's observed per-link check-leg latencies, recorded under
         the store's per-link marker key (the same entries
         Run_report.record_serve_stats writes) and read back through
         Store.latency_of — the loop the serving path closes across runs. *)
      List.iter
        (fun (site, mean_us, legs) ->
          Store.observe store
            { Store.db = "link"; site; link = site; strategy = "*" }
            {
              Store.weight = float_of_int legs;
              check_latency_us = mean_us;
              drop_rate = 0.0;
              cache_hit_rate = 0.0;
              demotions = 0.0;
            })
        warm.Serve.check_latency;
      Store.record_run store;
      ( Some Strategy.default_adaptive,
        Some (fun site -> Store.latency_of store ~site) )
    end
    else (None, None)
  in
  let out =
    Serve.run
      (config ~cost ~sched ~static_timeout_us ~retry_adaptive ~latency_of)
      fed jobs
  in
  let lats_us =
    List.map (fun r -> Time.to_us r.Serve.latency) out.Serve.reports
  in
  let demoted =
    List.fold_left
      (fun acc (r : Serve.query_report) ->
        acc
        + Msdq_odb.Oid.Goid.Set.cardinal (Answer.degraded r.Serve.answer))
      0 out.Serve.reports
  in
  {
    pt_policy = policy;
    pt_kind = kind;
    pt_severity = severity;
    pt_queries = queries;
    pt_demoted_rows = demoted;
    pt_abandoned_checks =
      Metrics.total out.Serve.registry "msdq_checks_abandoned_total";
    pt_mean_ms = percentile_ms lats_us `Mean;
    pt_p99_ms = percentile_ms lats_us `P99;
    pt_gray_sites = List.length (Fault.gray_sites sched);
  },
  Metrics.total out.Serve.registry "msdq_fault_retries_total"

let run ?pool ?registry ?progress ?(queries = 12) ?(seed = 1996)
    ?(cost = Cost.default) () =
  let id = "gray-sweep" in
  match make_case seed 0 with
  | None -> invalid_arg "Gray_sweep: no analyzable case for this seed"
  | Some (fed, analysis) ->
      let grid =
        Array.of_list
          (List.concat_map
             (fun policy ->
               List.concat_map
                 (fun kind ->
                   List.map (fun sev -> (policy, kind, sev)) severities)
                 kinds)
             policies)
      in
      let total = Array.length grid in
      let completed = Atomic.make 0 in
      let feedback_mutex = Mutex.create () in
      let cell (policy, kind, severity) =
        let r, retries =
          point ~cost ~fed ~analysis ~queries ~seed ~policy ~kind ~severity
        in
        let done_now = 1 + Atomic.fetch_and_add completed 1 in
        Mutex.lock feedback_mutex;
        Log.info (fun m ->
            m "%s: %s/%s/%s done (%d/%d): mean %.2f ms, %d demoted, %d \
               retries"
              id policy kind severity done_now total r.pt_mean_ms
              r.pt_demoted_rows retries);
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
      (match registry with
      | Some reg ->
          Metrics.inc
            (Metrics.counter reg
               ~labels:[ ("figure", id) ]
               "msdq_gray_points_total")
            total
      | None -> ());
      {
        id;
        title = "Static vs adaptive retry timeouts across gray-failure kinds";
        seed;
        queries;
        drop = base_drop;
        static_timeout_ms = static_timeout_us /. 1000.0;
        kinds;
        severities;
        policies;
        points;
      }

let point_of outcome ~policy ~kind ~severity =
  List.find_opt
    (fun p ->
      String.equal p.pt_policy policy
      && String.equal p.pt_kind kind
      && String.equal p.pt_severity severity)
    outcome.points

(* ---- reports ---- *)

let to_json g =
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  Json.Obj
    [
      ("id", Json.Str g.id);
      ("title", Json.Str g.title);
      ("seed", Json.Int g.seed);
      ("queries", Json.Int g.queries);
      ("drop", Json.Float g.drop);
      ("static_timeout_ms", Json.Float g.static_timeout_ms);
      ("kinds", strs g.kinds);
      ("severities", strs g.severities);
      ("policies", strs g.policies);
      ( "points",
        Json.Arr
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("policy", Json.Str p.pt_policy);
                   ("kind", Json.Str p.pt_kind);
                   ("severity", Json.Str p.pt_severity);
                   ("queries", Json.Int p.pt_queries);
                   ("demoted_rows", Json.Int p.pt_demoted_rows);
                   ("abandoned_checks", Json.Int p.pt_abandoned_checks);
                   ("mean_ms", Json.Float p.pt_mean_ms);
                   ("p99_ms", Json.Float p.pt_p99_ms);
                   ("gray_sites", Json.Int p.pt_gray_sites);
                 ])
             g.points) );
    ]

let pp ppf o =
  Format.fprintf ppf "%s — %s@.@." o.id o.title;
  Format.fprintf ppf
    "%d queries per cell, seed %d; static timeout %.2fms, baseline drop \
     %.2f@.@."
    o.queries o.seed o.static_timeout_ms o.drop;
  Format.fprintf ppf "%-9s %-9s %-7s %8s %6s %9s %9s %5s@." "policy" "kind"
    "sev" "demoted" "aband" "mean" "p99" "gray";
  List.iter
    (fun pt ->
      Format.fprintf ppf "%-9s %-9s %-7s %8d %6d %7.2fms %7.2fms %5d@."
        pt.pt_policy pt.pt_kind pt.pt_severity pt.pt_demoted_rows
        pt.pt_abandoned_checks pt.pt_mean_ms pt.pt_p99_ms pt.pt_gray_sites)
    o.points;
  Format.fprintf ppf
    "@.win condition: adaptive demotes no more rows than static on every \
     cell and cuts mean response on the slowdown cells by at least %.0f%%@."
    (100.0 *. response_margin)

(* ---- bench section ---- *)

(* The win condition. Leg fates are timeout-independent by construction,
   so the adaptive arm must never demote more rows than the static arm on
   the same cell; and on the slowdown cells, the gray signature the
   adaptive timeouts are built to exploit, its mean response must undercut
   the static arm's by [response_margin]. *)
let check c =
  let points =
    List.map
      (fun p ->
        ( (S.str p "policy", S.str p "kind", S.str p "severity"),
          (S.int ~min:0 p "demoted_rows", S.num ~range:S.Nonneg p "mean_ms") ))
      (S.elements ~nonempty:true (S.field c "points"))
  in
  List.iter
    (fun kind ->
      List.iter
        (fun severity ->
          let cell policy =
            match List.assoc_opt (policy, kind, severity) points with
            | Some v -> v
            | None -> S.invalid c "no %s/%s/%s point" policy kind severity
          in
          let sd, sm = cell static_policy and ad, am = cell adaptive_policy in
          if ad > sd then
            S.invalid c
              "soundness regression — adaptive demotes %d rows on %s/%s where \
               static demotes %d"
              ad kind severity sd;
          if String.equal kind slowdown && am > sm *. (1.0 -. response_margin) then
            S.invalid c
              "win-condition regression — adaptive mean %g ms on %s/%s is not \
               %g%% under the static %g ms"
              am kind severity (100.0 *. response_margin) sm)
        severities)
    kinds

let section =
  {
    S.key = "gray_sweep";
    since = 9;
    check;
    bars = [];
    guard = [ "seed"; "queries" ];
    metrics =
      Some
        (fun c ->
          let adaptive =
            List.filter_map
              (fun p ->
                if String.equal (S.str p "policy") adaptive_policy then
                  Some (S.num p "mean_ms")
                else None)
              (S.elements (S.field c "points"))
          in
          [ S.Time ("mean adaptive response", S.mean adaptive) ]);
  }
