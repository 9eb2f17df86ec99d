open Msdq_simkit
open Msdq_query
open Msdq_exec
module Json = Msdq_obs.Json
module Metrics = Msdq_obs.Metrics
module Tracer = Msdq_obs.Tracer

let phases = [ "O"; "P"; "I" ]

let dur_us (e : Trace.entry) =
  Time.to_us (Time.sub e.Trace.finish e.Trace.start)

let phase_of (e : Trace.entry) = List.assoc_opt "phase" e.Trace.attrs

(* ---- metrics ---- *)

let breakdown_json breakdown =
  Json.Arr
    (List.map
       (fun (label, busy, n) ->
         Json.Obj
           [
             ("label", Json.Str label);
             ("busy_s", Json.Float (Time.to_s busy));
             ("tasks", Json.Int n);
           ])
       breakdown)

(* Emitted only when a fault schedule was installed, so fault-free reports
   keep their exact historical bytes (golden-tested). *)
let availability_to_json (a : Strategy.availability) =
  Json.Obj
    [
      ("failed_sites", Json.Arr (List.map (fun s -> Json.Int s) a.Strategy.failed_sites));
      ("drops", Json.Int a.Strategy.drops);
      ("retries", Json.Int a.Strategy.retries);
      ("checks_abandoned", Json.Int a.Strategy.checks_abandoned);
      ("certain_fault_free", Json.Int a.Strategy.certain_fault_free);
      ("demoted", Json.Int a.Strategy.demoted);
      ("recovered", Json.Int a.Strategy.recovered);
      ("resurrected", Json.Int a.Strategy.resurrected);
      ("partial", Json.Bool a.Strategy.partial);
      ("degradation_ratio", Json.Float a.Strategy.degradation_ratio);
    ]

let metrics_to_json (m : Strategy.metrics) =
  let availability =
    if m.Strategy.availability.Strategy.faults_active then
      [ ("availability", availability_to_json m.Strategy.availability) ]
    else []
  in
  Json.Obj
    ([
      ("strategy", Json.Str (Strategy.to_string m.Strategy.strategy));
      ("total_s", Json.Float (Time.to_s m.Strategy.total));
      ("response_s", Json.Float (Time.to_s m.Strategy.response));
      ( "phases",
        Json.Arr
          (List.map
             (fun (phase, busy, n) ->
               Json.Obj
                 [
                   ("phase", Json.Str phase);
                   ("busy_s", Json.Float (Time.to_s busy));
                   ("tasks", Json.Int n);
                 ])
             (Strategy.phase_breakdown m)) );
      ("bytes_shipped", Json.Int m.Strategy.bytes_shipped);
      ("disk_bytes", Json.Int m.Strategy.disk_bytes);
      ("messages", Json.Int m.Strategy.messages);
      ("check_requests", Json.Int m.Strategy.check_requests);
      ("checks_filtered", Json.Int m.Strategy.checks_filtered);
      ("work_units", Json.Int m.Strategy.work_units);
      ("goid_lookups", Json.Int m.Strategy.goid_lookups);
      ("promoted", Json.Int m.Strategy.promoted);
      ("eliminated_at_global", Json.Int m.Strategy.eliminated_at_global);
      ("conflicts", Json.Int m.Strategy.conflicts);
      ("breakdown", breakdown_json m.Strategy.breakdown);
      ("registry", Metrics.to_json m.Strategy.registry);
    ]
    @ availability)

let run_to_json answer (m : Strategy.metrics) =
  Json.Obj
    [
      ( "answer",
        Json.Obj
          [
            ("certain", Json.Int (List.length (Answer.certain answer)));
            ("maybe", Json.Int (List.length (Answer.maybe answer)));
          ] );
      ("metrics", metrics_to_json m);
    ]

let query_to_json ~query runs =
  Json.Obj
    [
      ("query", Json.Str query);
      ("runs", Json.Arr (List.map (fun (a, m) -> run_to_json a m) runs));
    ]

(* ---- Chrome trace ---- *)

let kind_tid = function
  | Some Resource.Cpu -> 0
  | Some Resource.Disk -> 1
  | Some Resource.Link -> 2
  | None -> 3 (* fences and delays: the synchronization lane *)

let span_of_entry (e : Trace.entry) : Tracer.span =
  let site = match e.Trace.site with Some s -> s | None -> 0 in
  let cat =
    match e.Trace.kind with
    | Some k -> Resource.kind_to_string k
    | None -> "sync"
  in
  {
    Tracer.name = e.Trace.label;
    cat;
    pid = site;
    tid = kind_tid e.Trace.kind;
    ts_us = Time.to_us e.Trace.start;
    dur_us = dur_us e;
    args = e.Trace.attrs;
  }

let site_pid (e : Trace.entry) =
  match e.Trace.site with Some s -> s | None -> 0

(* One Chrome flow edge per recorded dependency: from the end of the
   predecessor's span to the start of the dependent's. Flow ids only need
   to be unique within the document; [id_base] keeps several traces'
   edges apart when their tid spaces overlap. *)
let flow_events_of_entries ~id_base entries =
  let by_tid = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.entry) -> Hashtbl.replace by_tid e.Trace.tid e)
    entries;
  let next = ref id_base in
  List.concat_map
    (fun (e : Trace.entry) ->
      List.concat_map
        (fun d ->
          match Hashtbl.find_opt by_tid d with
          | None -> []
          | Some (src : Trace.entry) ->
              incr next;
              Tracer.flow_pair ~id:!next
                ~src:
                  ( site_pid src,
                    kind_tid src.Trace.kind,
                    Time.to_us src.Trace.finish )
                ~dst:(site_pid e, kind_tid e.Trace.kind, Time.to_us e.Trace.start)
                ())
        e.Trace.deps)
    entries

let chrome_of ~spans ~flows =
  let pids =
    List.sort_uniq compare (List.map (fun (s : Tracer.span) -> s.Tracer.pid) spans)
  in
  let process_names =
    List.map
      (fun pid ->
        if pid = Tracer.host_pid then (pid, "host")
        else if pid = 0 then (pid, "site 0 (global)")
        else (pid, Printf.sprintf "site %d" pid))
      pids
  in
  let thread_names =
    List.concat_map
      (fun pid ->
        if pid = Tracer.host_pid then [ (pid, 0, "host") ]
        else
          [ (pid, 0, "cpu"); (pid, 1, "disk"); (pid, 2, "link"); (pid, 3, "sync") ])
      pids
  in
  Tracer.chrome ~process_names ~thread_names ~extra:flows spans

let chrome_trace ms =
  let sim_spans =
    List.concat_map
      (fun (m : Strategy.metrics) ->
        List.map span_of_entry (Trace.entries m.Strategy.trace))
      ms
  in
  let host_spans = List.concat_map (fun m -> m.Strategy.host_spans) ms in
  let flows =
    List.concat
      (List.mapi
         (fun i (m : Strategy.metrics) ->
           flow_events_of_entries ~id_base:(i * 1_000_000)
             (Trace.entries m.Strategy.trace))
         ms)
  in
  chrome_of ~spans:(sim_spans @ host_spans) ~flows

let chrome_trace_of_entries entries =
  chrome_of
    ~spans:(List.map span_of_entry entries)
    ~flows:(flow_events_of_entries ~id_base:0 entries)

(* ---- utilization ---- *)

let pp_utilization ppf (m : Strategy.metrics) =
  let entries = Trace.entries m.Strategy.trace in
  let sites =
    List.sort_uniq compare
      (List.filter_map (fun (e : Trace.entry) -> e.Trace.site) entries)
  in
  let busy ~site ~phase =
    List.fold_left
      (fun acc (e : Trace.entry) ->
        if e.Trace.site = Some site && phase_of e = Some phase then
          Time.add acc (Time.sub e.Trace.finish e.Trace.start)
        else acc)
      Time.zero entries
  in
  let site_total site =
    List.fold_left
      (fun acc (e : Trace.entry) ->
        if e.Trace.site = Some site then
          Time.add acc (Time.sub e.Trace.finish e.Trace.start)
        else acc)
      Time.zero entries
  in
  Format.fprintf ppf "@[<v>%s utilization (busy seconds per site and phase)@,"
    (Strategy.to_string m.Strategy.strategy);
  Format.fprintf ppf "%-10s %10s %10s %10s %10s@," "site" "O" "P" "I" "total";
  List.iter
    (fun site ->
      let name = if site = 0 then "global" else Printf.sprintf "site %d" site in
      Format.fprintf ppf "%-10s" name;
      List.iter
        (fun phase ->
          Format.fprintf ppf " %10.6f" (Time.to_s (busy ~site ~phase)))
        phases;
      Format.fprintf ppf " %10.6f@," (Time.to_s (site_total site)))
    sites;
  Format.fprintf ppf "@]"

(* ---- figures ---- *)

let figure_to_json (fig : Figures.figure) =
  let floats a = Json.Arr (Array.to_list (Array.map (fun x -> Json.Float x) a)) in
  Json.Obj
    [
      ("id", Json.Str fig.Figures.id);
      ("title", Json.Str fig.Figures.title);
      ("xlabel", Json.Str fig.Figures.xlabel);
      ("xs", floats fig.Figures.xs);
      ( "series",
        Json.Arr
          (List.map
             (fun (s : Figures.series) ->
               Json.Obj
                 [
                   ("strategy", Json.Str (Strategy.to_string s.Figures.strategy));
                   ("totals_s", floats s.Figures.totals);
                   ("responses_s", floats s.Figures.responses);
                 ])
             fig.Figures.series) );
    ]

let figures_to_json figs =
  Json.Obj [ ("figures", Json.Arr (List.map figure_to_json figs)) ]

(* ---- explain ---- *)

(* Per-row provenance of an answer: what each maybe row is waiting on.
   Degraded rows name the check round trip that never returned; cached
   rows name the verdict cache; the rest of the maybe rows are honest
   missing-data maybes (their predicate is Unknown on the available
   attributes). *)
let pp_explain ppf answer =
  let open Msdq_odb in
  let cached = Answer.cached answer in
  let rows = Answer.rows answer in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "%-14s %-8s provenance@," "goid" "status";
  List.iter
    (fun (r : Answer.row) ->
      let goid = r.Answer.goid in
      let provenance =
        match Answer.degraded_reason answer goid with
        | Some why -> Printf.sprintf "degraded: %s" (Answer.reason_to_string why)
        | None -> (
            match r.Answer.status with
            | Answer.Maybe ->
                "missing data: predicate unknown on the available attributes"
            | Answer.Certain ->
                if Oid.Goid.Set.mem goid cached then
                  "certified using cache-served verdicts"
                else "certified")
      in
      Format.fprintf ppf "%-14s %-8s %s@," (Oid.Goid.to_string goid)
        (Answer.status_to_string r.Answer.status)
        provenance)
    rows;
  let d = Oid.Goid.Set.cardinal (Answer.degraded answer) in
  Format.fprintf ppf "%d rows, %d certain, %d maybe (%d degraded, %d cached)@]"
    (List.length rows)
    (List.length (Answer.certain answer))
    (List.length (Answer.maybe answer))
    d
    (Oid.Goid.Set.cardinal cached)

(* ---- telemetry store feed ---- *)

module Store = Msdq_telemetry.Store

(* Fold one serve outcome into a telemetry store: one (db="*", site=0,
   link=0, strategy) entry per strategy in the workload, carrying the
   strategy's mean query latency and demotion count plus the workload's
   drop and cache-hit rates. These are the observed statistics the AUTO
   strategy selector (ROADMAP item 2) will consume. *)
let record_serve_stats ~store (o : Msdq_serve.Serve.outcome) =
  let open Msdq_serve in
  let lookups (s : Lru.stats) = s.Lru.hits + s.Lru.misses in
  let hits = o.Serve.extent_cache.Lru.hits + o.Serve.verdict_cache.Lru.hits in
  let looks = lookups o.Serve.extent_cache + lookups o.Serve.verdict_cache in
  let cache_hit_rate =
    if looks = 0 then 0.0 else float_of_int hits /. float_of_int looks
  in
  let drops = Metrics.total o.Serve.registry "msdq_fault_drops_total" in
  let drop_rate =
    if o.Serve.messages + drops = 0 then 0.0
    else float_of_int drops /. float_of_int (o.Serve.messages + drops)
  in
  let by_strategy = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun (r : Serve.query_report) ->
      let name = Strategy.to_string r.Serve.strategy in
      let lat = Time.to_us r.Serve.latency in
      let dem =
        Msdq_odb.Oid.Goid.Set.cardinal (Answer.degraded r.Serve.answer)
      in
      match Hashtbl.find_opt by_strategy name with
      | Some (n, lat_sum, dem_sum) ->
          Hashtbl.replace by_strategy name (n + 1, lat_sum +. lat, dem_sum + dem)
      | None ->
          Hashtbl.replace by_strategy name (1, lat, dem);
          order := name :: !order)
    o.Serve.reports;
  List.iter
    (fun name ->
      let n, lat_sum, dem_sum = Hashtbl.find by_strategy name in
      let fn = float_of_int n in
      Store.observe store
        { Store.db = "*"; site = 0; link = 0; strategy = name }
        {
          Store.weight = fn;
          check_latency_us = lat_sum /. fn;
          drop_rate;
          cache_hit_rate;
          demotions = float_of_int dem_sum /. fn;
        })
    (List.rev !order);
  (* Per-link gray-health entries: the mean delivered check-leg latency per
     destination site, under the marker key {db="link"; strategy="*"} (see
     Store.link_latency). This is what options.latency_of reads back to
     drive the next run's adaptive timeouts. *)
  List.iter
    (fun (site, mean_us, legs) ->
      Store.observe store
        { Store.db = "link"; site; link = site; strategy = "*" }
        {
          Store.weight = float_of_int legs;
          check_latency_us = mean_us;
          drop_rate;
          cache_hit_rate;
          demotions = 0.0;
        })
    o.Serve.check_latency;
  Store.record_run store
