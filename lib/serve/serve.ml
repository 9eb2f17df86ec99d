open Msdq_odb
open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
module Fault = Msdq_fault.Fault
module Metrics = Msdq_obs.Metrics
module Tracer = Msdq_obs.Tracer
module Optimizer = Msdq_opt.Optimizer
module Planner = Msdq_opt.Planner

type shed_policy = Reject_newest | Reject_oldest | Degrade

let shed_policies = [ Reject_newest; Reject_oldest; Degrade ]

let shed_policy_to_string = function
  | Reject_newest -> "reject-newest"
  | Reject_oldest -> "reject-oldest"
  | Degrade -> "degrade"

let shed_policy_of_string s =
  match String.lowercase_ascii s with
  | "reject-newest" -> Ok Reject_newest
  | "reject-oldest" -> Ok Reject_oldest
  | "degrade" -> Ok Degrade
  | other ->
      Error
        (Printf.sprintf "unknown shed policy %S (accepted: %s)" other
           (String.concat " | " (List.map shed_policy_to_string shed_policies)))

type config = {
  options : Strategy.options;
  cache_bytes : int;
  window : Time.t;
  deadline : Time.t option;
  queue_limit : int option;
  shed_policy : shed_policy;
}

(* The framing bytes charged on every serve-path message on top of the
   Table 1 byte costs; batching amortizes them across queries. *)
let msg_header_bytes = 64

let default_config =
  {
    options = Strategy.default_options;
    cache_bytes = 4 * 1024 * 1024;
    window = Time.zero;
    deadline = None;
    queue_limit = None;
    shed_policy = Reject_newest;
  }

type job = {
  strategy : Strategy.t;
  analysis : Analysis.t;
  arrival : Time.t;
  deadline : Time.t option;
}

type query_report = {
  index : int;
  strategy : Strategy.t;
  arrival : Time.t;
  completed : Time.t;
  latency : Time.t;
  answer : Answer.t;
  extent_hits : int;
  verdict_hits : int;
  deadline_demoted : int;
  registry : Metrics.t;
}

type shed_report = {
  s_index : int;
  s_strategy : Strategy.t;
  s_arrival : Time.t;
  s_policy : shed_policy;
}

type outcome = {
  reports : query_report list;
  shed : shed_report list;
  makespan : Time.t;
  throughput : float;
  extent_cache : Lru.stats;
  verdict_cache : Lru.stats;
  messages : int;
  coalesced_checks : int;
  max_queue_depth : int;
  check_latency : (int * float * int) list;
      (** per destination site: (site, mean delivered check-leg latency in
          microseconds, legs observed) — the gray-health signal the
          telemetry store feeds back into adaptive timeouts *)
  registry : Metrics.t;
  trace : Trace.entry list;
}

let throughput (o : outcome) = o.throughput

(* ------------------------------------------------------------------ *)
(* Validation *)

let validate_deadline what = function
  | None -> ()
  | Some d ->
      if (not (Time.is_finite d)) || Time.compare d Time.zero <= 0 then
        invalid_arg
          (Printf.sprintf
             "Serve: %s must be a positive, finite duration (got %s)" what
             (if Time.is_finite d then
                Printf.sprintf "%.0f us" (Time.to_us d)
              else "a non-finite value"))

let validate cfg jobs =
  Strategy.validate_options cfg.options;
  if cfg.options.Strategy.deep_certify then
    invalid_arg "Serve: deep_certify is not supported by the workload engine";
  if cfg.options.Strategy.recovery.Recovery.failover then
    invalid_arg
      "Serve: recovery.failover is not supported by the workload engine \
       (check round trips are retry-only)";
  if cfg.cache_bytes < 0 then invalid_arg "Serve: negative cache_bytes";
  if (not (Time.is_finite cfg.window)) || Time.compare cfg.window Time.zero < 0
  then invalid_arg "Serve: window must be non-negative and finite";
  validate_deadline "deadline" cfg.deadline;
  (match cfg.queue_limit with
  | Some l when l < 1 ->
      invalid_arg
        (Printf.sprintf
           "Serve: queue_limit must be >= 1 (got %d); omit it for an \
            unbounded queue"
           l)
  | Some _ | None -> ());
  let _ =
    List.fold_left
      (fun prev (j : job) ->
        if j.strategy = Strategy.Cf then
          invalid_arg "Serve: strategy CF has no serve-path integration";
        if (not (Time.is_finite j.arrival))
           || Time.compare j.arrival Time.zero < 0
        then invalid_arg "Serve: job arrivals must be non-negative and finite";
        if Time.compare j.arrival prev < 0 then
          invalid_arg "Serve: jobs must be listed in non-decreasing arrival order";
        validate_deadline "job deadline" j.deadline;
        j.arrival)
      Time.zero jobs
  in
  ()

(* ------------------------------------------------------------------ *)
(* Fault fating — pure, timing-independent.

   Every check round trip's fate is a function of the schedule and the
   query's arrival instant only: drop draws use the schedule's pure hash
   with synthetic per-(query, leg, attempt) labels and the arrival as the
   draw's [start]. Caching can therefore never change which rows demote. *)

type leg = {
  delivered : bool;
  attempts : int;  (** attempts consumed, including the successful one *)
  extra_wait : Time.t;  (** retransmission waits accumulated before giving
                            up or succeeding *)
}

let leg_fate sched (retry : Strategy.retry) ?latency_of ~src ~dst ~label ~at
    () =
  let p =
    match Fault.link_of sched dst with Some l -> l.Fault.drop | None -> 0.0
  in
  let down = Fault.site_down sched ~site:dst ~at in
  (* Asymmetric partitions fate like outages: checked once at the query's
     arrival, so the fate stays timing- and cache-independent. *)
  let cut = Fault.one_way_cut sched ~src:(Some src) ~dst ~at in
  (* Adaptive retry: the per-destination effective timeout replaces the
     static one in every wait. The drop draws below ignore the timeout
     entirely, so which legs deliver — and hence which rows demote — is
     identical under static and adaptive policies; only the waits differ. *)
  let timeout = Strategy.effective_timeout ?latency_of retry ~dst in
  let rec go k wait =
    let dropped =
      down || cut
      || Fault.drop_draw sched ~dst
           ~label:(Printf.sprintf "%s:a%d" label k)
           ~start:at ~p
    in
    if not dropped then { delivered = true; attempts = k; extra_wait = wait }
    else
      let wait =
        Time.add wait (Strategy.retry_wait retry ~timeout ~attempt:k)
      in
      if k >= retry.Strategy.max_attempts then
        { delivered = false; attempts = k; extra_wait = wait }
      else go (k + 1) wait
  in
  go 1 Time.zero

(* ------------------------------------------------------------------ *)
(* Admission control — pure, timing-independent.

   Arrivals walk a deterministic virtual single-server FIFO queue over
   Planner-predicted response times: entry [i] virtually starts at
   [max arrival_i (previous virtual finish)] and finishes one predicted
   service later. The queue depth seen by an arrival (entries whose
   virtual finish lies beyond it) drives the shed decision and, together
   with the deadline-miss EWMA, the overload score fed back to the
   optimizer. Everything here is a function of arrivals and catalog-only
   predictions — never of engine timing or cache state — so admission
   decisions, like fault fates, are identical warm and cold. *)

let miss_alpha = 0.2

(* Gray detection (run_auto): a delivered check leg counts as slow when its
   latency stretch over the fault-free baseline reaches [gray_slow_ratio];
   per-site slow observations feed an EWMA with [gray_alpha], and a site
   whose EWMA exceeds [gray_threshold] is reported gray to the optimizer. *)
let gray_slow_ratio = 1.5
let gray_alpha = 0.4
let gray_threshold = 0.5

type vq_entry = {
  e_index : int;
  e_arrival : Time.t;
  e_service : Time.t;
  mutable e_vstart : Time.t;
  mutable e_vfinish : Time.t;
}

type admission = {
  a_limit : int option;
  (* admitted, oldest first; a growable array ([a_len] live entries) so the
     per-arrival hot path appends in O(1) and depth checks count in place
     instead of rebuilding lists *)
  mutable a_entries : vq_entry array;
  mutable a_len : int;
  mutable a_miss_ewma : float;  (* predicted deadline misses, EWMA *)
  mutable a_max_depth : int;
}

let admission_create cfg =
  {
    a_limit = cfg.queue_limit;
    a_entries = [||];
    a_len = 0;
    a_miss_ewma = 0.0;
    a_max_depth = 0;
  }

(* Recompute the virtual start/finish chain after a structural change
   (eviction); a push only needs the tail's finish, see below. *)
let vq_rechain adm =
  let last = ref Time.zero in
  for i = 0 to adm.a_len - 1 do
    let e = adm.a_entries.(i) in
    e.e_vstart <- Time.max e.e_arrival !last;
    e.e_vfinish <- Time.add e.e_vstart e.e_service;
    last := e.e_vfinish
  done

let admission_depth adm ~at =
  let d = ref 0 in
  for i = 0 to adm.a_len - 1 do
    if Time.compare adm.a_entries.(i).e_vfinish at > 0 then incr d
  done;
  if !d > adm.a_max_depth then adm.a_max_depth <- !d;
  !d

let admission_overload adm ~at =
  (match adm.a_limit with
  | Some l -> float_of_int (admission_depth adm ~at) /. float_of_int l
  | None -> 0.0)
  +. adm.a_miss_ewma

let over_capacity adm ~at =
  match adm.a_limit with
  | Some l -> admission_depth adm ~at >= l
  | None -> false

let admission_grow adm e =
  if adm.a_len = Array.length adm.a_entries then begin
    let cap = if adm.a_len = 0 then 16 else 2 * adm.a_len in
    let entries = Array.make cap e in
    Array.blit adm.a_entries 0 entries 0 adm.a_len;
    adm.a_entries <- entries
  end

(* Admit one job; returns its predicted queueing delay. Arrivals come in
   admission order, so the new entry's chain position depends only on the
   tail's virtual finish — no rechain of the earlier entries needed. *)
let admission_push adm ~index ~arrival ~service =
  let last =
    if adm.a_len = 0 then Time.zero
    else adm.a_entries.(adm.a_len - 1).e_vfinish
  in
  let vstart = Time.max arrival last in
  let e =
    {
      e_index = index;
      e_arrival = arrival;
      e_service = service;
      e_vstart = vstart;
      e_vfinish = Time.add vstart service;
    }
  in
  admission_grow adm e;
  adm.a_entries.(adm.a_len) <- e;
  adm.a_len <- adm.a_len + 1;
  Time.sub e.e_vstart arrival

(* Reject_oldest: drop the oldest admitted job that has not virtually
   started (the queue head); [None] when every earlier job is already in
   virtual service, in which case the arrival itself must shed. *)
let admission_evict_oldest adm ~at =
  let rec find i =
    if i >= adm.a_len then None
    else
      let e = adm.a_entries.(i) in
      if Time.compare e.e_vstart at > 0 then begin
        Array.blit adm.a_entries (i + 1) adm.a_entries i (adm.a_len - i - 1);
        adm.a_len <- adm.a_len - 1;
        vq_rechain adm;
        Some e.e_index
      end
      else find (i + 1)
  in
  find 0

let admission_observe_miss adm ~deadline ~qdelay ~service =
  let miss =
    match deadline with
    | Some budget when Time.compare (Time.add qdelay service) budget > 0 -> 1.0
    | Some _ | None -> 0.0
  in
  adm.a_miss_ewma <-
    ((1.0 -. miss_alpha) *. adm.a_miss_ewma) +. (miss_alpha *. miss)

(* ------------------------------------------------------------------ *)
(* Host-side preparation: real answers, cache decisions, fault fates.

   All data decisions happen here, in job-admission order, before any
   simulated time elapses — the engine pass below only charges durations.
   This is what makes the whole workload's answers independent of engine
   interleaving, cache capacity and batching window by construction. *)

type check_group = {
  g_origin : string;
  g_target : string;
  g_all : Checks.request list;
  g_wire : Checks.request list;  (* cache misses actually shipped *)
  g_hits : Checks.verdict list;  (* served from the verdict cache *)
  g_full_verdicts : Checks.verdict list;  (* every request answered *)
  g_wire_read_bytes : int;
  g_wire_serve_units : int;
  g_wire_verdicts : int;
  g_req_leg : leg;
  g_ver_leg : leg;
  g_doomed : bool;  (* abandoned at the query's deadline *)
  g_deadline_est : Time.t;  (* estimated completion that blew the budget *)
}

let group_lost g = not (g.g_req_leg.delivered && g.g_ver_leg.delivered)

(* One database's local phase, and whether this arrival's read of it hit
   the extent cache. *)
type local_db = { l_phase : Strategy.local_phase; l_read_hit : bool }

type qplan =
  | Centralized of {
      ca_ships : (Strategy.ca_extent * bool) list;  (* extent, cache hit *)
      ca_units : int;  (* integrate + eval + lookups, at the global site *)
    }
  | Localized of { locals : local_db list; groups : check_group list }

type prepared = {
  p_index : int;
  p_strategy : Strategy.t;
  p_arrival : Time.t;
  p_deadline : Time.t option;  (* effective latency budget *)
  p_plan : qplan;
  p_answer : Answer.t;
  p_certify_units : int;
  p_extent_hits : int;
  p_verdict_hits : int;
  p_deadline_demoted : int;
  p_registry : Metrics.t;
}

let involved_sig involved =
  String.concat ";"
    (List.map
       (fun gcls ->
         gcls ^ ":" ^ String.concat "," (Involved.attrs_of_class involved gcls))
       (Involved.classes involved))

let units_of_work = Meter.units

(* One extent cache per site: each site owns [cache_bytes] of cache RAM. *)
let extent_cache_of caches ~cache_bytes ~site =
  match Hashtbl.find_opt caches site with
  | Some c -> c
  | None ->
      let c = Lru.create ~capacity_bytes:cache_bytes in
      Hashtbl.add caches site c;
      c

(* ------------------------------------------------------------------ *)
(* The run's memo: the pure parts of [prepare], once per distinct key.

   Local evaluation, probing, check building, check serving, fault-free
   certification, CA and the planner's predictions depend only on the
   query and the federation. A run computes each once per distinct key and
   every later arrival reads the stored value, meter snapshots and unit
   counts included, so it charges the simulated clock exactly what a fresh
   computation would. Fates, deadlines, cache consults and provenance stay
   per arrival, in [prepare]. The memo lives in the run's [intake]: nothing
   outlives a run or crosses pool domains. *)

(* Queries match by structure, not identity. The hash looks deep enough to
   reach the WHERE clause, where [Hashtbl.hash] stops short of the
   constants that tell the benchmark's queries apart. Equal structures
   also compare their printed text: [=] equates the constants 0.0 and
   -0.0, which print, and so key their verdicts, differently. *)
module Query_tbl = Hashtbl.Make (struct
  type t = Ast.t

  let equal q q' =
    q == q' || (q = q' && String.equal (Ast.to_string q) (Ast.to_string q'))

  let hash q = Hashtbl.hash_param 256 256 q
end)

(* The requests one origin database sends one target, all of them served,
   and each request's verdict-cache key (made only when a cache is
   consulted). *)
type group_memo = {
  c_batch : Strategy.check_batch;
  c_tsite : int;
  c_keys : string list Lazy.t;
}

(* A localized strategy's plan of a query. *)
type plan_memo = {
  m_plan : Strategy.localized_plan;
  m_locals : (Strategy.local_phase * string) list;
      (* each phase, and its read's extent-cache key *)
  m_groups : group_memo list;
  m_ff : Certify.outcome;  (* every verdict delivered *)
}

type ca_memo = {
  k_plan : Strategy.ca_plan;
  k_keys : string list;  (* each extent's cache key *)
}

type query_memo = {
  q_analysis : Analysis.t;  (* the first arrival's; later ones are equal *)
  q_isig : string;
  q_ca : ca_memo Lazy.t;
  q_dbs : (string, Local_eval.scan) Hashtbl.t;
      (* per database, its scan and the local result it keeps, shared by
         every localized strategy. PL and PLS each take their probe from
         the kept scan: a kept probe would hold every root object's
         blocked items until the run ends. *)
  q_strategies : (Strategy.t, plan_memo) Hashtbl.t;
  q_predicted : (Strategy.t, Time.t * Time.t) Hashtbl.t;
  q_auto : Planner.prediction list Lazy.t;
      (* AUTO's candidates, at the cost [Optimizer.decide] defaults to *)
}

(* A stream's intake, shared by [run] and [run_auto]: the workload
   registry, the caches, the memo, the admission queue, and the admitted
   (prepared) and shed queries so far, newest first. *)
type intake = {
  wl : Metrics.t;
  extent_caches : (int, unit Lru.t) Hashtbl.t;
  verdict_cache : Truth.t Lru.t;
  signatures : Sig_catalog.t Lazy.t;
  memo : query_memo Query_tbl.t;
  adm : admission;
  mutable admitted : prepared list;
  mutable shed : shed_report list;
}

let intake_create ?registry cfg fed =
  {
    wl = (match registry with Some r -> r | None -> Metrics.create ());
    extent_caches = Hashtbl.create 8;
    verdict_cache = Lru.create ~capacity_bytes:cfg.cache_bytes;
    signatures = lazy (Sig_catalog.build fed);
    memo = Query_tbl.create 16;
    adm = admission_create cfg;
    admitted = [];
    shed = [];
  }

let memo_find tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = compute () in
      Hashtbl.add tbl key v;
      v

let query_memo it (cfg : config) fed tracer (analysis : Analysis.t) =
  let q = analysis.Analysis.query in
  match Query_tbl.find_opt it.memo q with
  | Some m -> m
  | None ->
      let opts = cfg.options in
      let isig =
        involved_sig
          (Involved.compute
             (Global_schema.schema (Federation.global_schema fed))
             analysis)
      in
      let ca () =
        let plan =
          Strategy.plan_ca ~multi_valued:opts.Strategy.multi_valued ~tracer
            opts.Strategy.cost fed analysis
        in
        {
          k_plan = plan;
          k_keys =
            List.map
              (fun (x : Strategy.ca_extent) ->
                Printf.sprintf "ca|%s|%s" x.Strategy.ca_db isig)
              plan.Strategy.extents;
        }
      in
      let m =
        {
          q_analysis = analysis;
          q_isig = isig;
          q_ca = Lazy.from_fun ca;
          q_dbs = Hashtbl.create 4;
          q_strategies = Hashtbl.create 4;
          q_predicted = Hashtbl.create 4;
          q_auto =
            lazy (Planner.predict ~strategies:Optimizer.candidates fed analysis);
        }
      in
      Query_tbl.add it.memo q m;
      m

let plan_memo it (cfg : config) fed tracer m st =
  memo_find m.q_strategies st @@ fun () ->
  let opts = cfg.options in
  let analysis = m.q_analysis in
  let signatures =
    if st = Strategy.Bls || st = Strategy.Pls then
      Some (Lazy.force it.signatures)
    else None
  in
  let plan =
    Strategy.plan_localized
      ~local:(fun db ->
        memo_find m.q_dbs db (fun () ->
            Local_eval.scan ~tracer fed analysis ~db))
      ?signatures ~tracer opts.Strategy.cost
      ~parallel:(st = Strategy.Pl || st = Strategy.Pls)
      ~checks:(st <> Strategy.Lo) fed analysis
  in
  let groups =
    List.map
      (fun (b : Strategy.check_batch) ->
        {
          c_batch = b;
          c_tsite = Federation.site_of fed b.Strategy.target;
          c_keys =
            lazy (List.map Checks.request_signature b.Strategy.requests);
        })
      plan.Strategy.batches
  in
  {
    m_plan = plan;
    m_locals =
      List.map
        (fun (ph : Strategy.local_phase) ->
          (ph, Printf.sprintf "loc|%s|%s" ph.Strategy.db m.q_isig))
        plan.Strategy.phases;
    m_groups = groups;
    m_ff =
      Certify.run ~multi_valued:opts.Strategy.multi_valued ~tracer fed
        analysis ~results:plan.Strategy.results
        ~verdicts:(Strategy.full_verdicts plan);
  }

(* The Planner's (total, response) prediction for [st]. *)
let predicted_memo (cfg : config) fed m st =
  memo_find m.q_predicted st @@ fun () ->
  match
    Planner.predict ~cost:cfg.options.Strategy.cost ~strategies:[ st ] fed
      m.q_analysis
  with
  | [ pr ] -> (pr.Planner.total, pr.Planner.response)
  | _ -> (Time.zero, Time.zero)

(* Splits a live group's requests into the wire, its keys and the
   verdict-cache hits, each in request order. A hit whose truth differs
   from the served verdict sets [stale]. *)
let consult_verdicts cache ~gen ~stale g =
  let rec go reqs keys served wire wire_keys hits =
    match (reqs, keys, served) with
    | r :: reqs, key :: keys, (v : Checks.verdict) :: served -> (
        match Lru.find cache ~gen key with
        | Some truth ->
            if not (Truth.equal truth v.Checks.truth) then stale := true;
            go reqs keys served wire wire_keys ({ v with Checks.truth } :: hits)
        | None -> go reqs keys served (r :: wire) (key :: wire_keys) hits)
    | _ -> (List.rev wire, List.rev wire_keys, List.rev hits)
  in
  go g.c_batch.Strategy.requests (Lazy.force g.c_keys)
    g.c_batch.Strategy.served.Checks.verdicts [] [] []

(* [qdelay] is the admission queue's predicted queueing delay for this
   query and [predicted] the Planner-predicted response of its strategy;
   both are zero when neither deadline nor queue limit is configured.
   Together with each group's retry waits they decide — at admission,
   timing-independently — which check round trips the deadline abandons. *)
let prepare (cfg : config) fed tracer it m ~qdelay ~predicted index (j : job) =
  let deadline =
    match j.deadline with Some _ as d -> d | None -> cfg.deadline
  in
  let opts = cfg.options in
  let sched = opts.Strategy.fault in
  let c = opts.Strategy.cost in
  let caching = cfg.cache_bytes > 0 in
  let gsite = Federation.global_site fed in
  let verdict_cache = it.verdict_cache in
  let at = j.arrival in
  let registry = Metrics.create () in
  let extent_hits = ref 0 in
  let verdict_hits = ref 0 in
  (* Generation of a cache at [holder]: the holder's crashes wipe its RAM;
     for artifacts derived from another site's data ([source]), that site's
     crashes stale the copy too. *)
  let gen ~holder ~source =
    Fault.generation sched ~site:holder ~at
    + if source = holder then 0 else Fault.generation sched ~site:source ~at
  in
  (* Consults [site]'s extent cache for [key], a read of [source]'s data;
     a miss stores a [bytes]-sized entry. Counts and returns the hit. *)
  let extent_hit ~site ~source ~key ~bytes =
    let hit =
      caching
      &&
      let cache =
        extent_cache_of it.extent_caches ~cache_bytes:cfg.cache_bytes ~site
      in
      let gen = gen ~holder:site ~source in
      match Lru.find cache ~gen key with
      | Some () -> true
      | None ->
          Lru.add cache ~gen ~key ~bytes ();
          false
    in
    if hit then incr extent_hits;
    hit
  in
  match j.strategy with
  | Strategy.Cf -> assert false (* rejected by [validate] *)
  | Strategy.Ca ->
      let k = Lazy.force m.q_ca in
      let ca = k.k_plan in
      let ca_ships =
        List.map2
          (fun (x : Strategy.ca_extent) key ->
            ( x,
              extent_hit ~site:gsite ~source:x.Strategy.ca_site ~key
                ~bytes:x.Strategy.extent_bytes ))
          ca.Strategy.extents k.k_keys
      in
      let ca_units =
        ca.Strategy.integrate_units + ca.Strategy.global_eval_units
        + !extent_hits
      in
      {
        p_index = index;
        p_strategy = j.strategy;
        p_arrival = at;
        p_deadline = deadline;
        p_plan = Centralized { ca_ships; ca_units };
        p_answer = ca.Strategy.outcome.Ca.answer;
        p_certify_units = ca_units;
        p_extent_hits = !extent_hits;
        p_verdict_hits = 0;
        p_deadline_demoted = 0;
        p_registry = registry;
      }
  | (Strategy.Bl | Strategy.Pl | Strategy.Bls | Strategy.Pls | Strategy.Lo) as st ->
      let pm = plan_memo it cfg fed tracer m st in
      let locals =
        List.map
          (fun ((ph : Strategy.local_phase), key) ->
            {
              l_phase = ph;
              l_read_hit =
                extent_hit ~site:ph.Strategy.site ~source:ph.Strategy.site ~key
                  ~bytes:ph.Strategy.read_bytes;
            })
          pm.m_locals
      in
      let retry = opts.Strategy.retry in
      let stale = ref false in
      let groups =
        List.map
          (fun g ->
            let origin = g.c_batch.Strategy.origin in
            let target = g.c_batch.Strategy.target in
            let tsite = g.c_tsite in
            let reqs = g.c_batch.Strategy.requests in
            (* Fate first — a doomed round trip never consults the cache,
               so warm demotions coincide with cold ones. Requests leave
               from the origin's site, as [flush] sends them. *)
            let req_leg =
              leg_fate sched retry ?latency_of:opts.Strategy.latency_of
                ~src:(Federation.site_of fed origin) ~dst:tsite
                ~label:(Printf.sprintf "serve:q%d:%s->%s:req" index origin target)
                ~at ()
            in
            let ver_leg =
              leg_fate sched retry ?latency_of:opts.Strategy.latency_of
                ~src:tsite ~dst:gsite
                ~label:(Printf.sprintf "serve:q%d:%s->%s:verdict" index origin target)
                ~at ()
            in
            let lost = not (req_leg.delivered && ver_leg.delivered) in
            (* Deadline fate, decided at admission like loss fates: the
               round trip is abandoned iff its estimated completion —
               predicted queueing delay + predicted response + this
               group's retry waits — blows the query's budget. A doomed
               round trip never consults or populates the cache either,
               so cached verdicts can never resurrect a deadline-demoted
               row (the fault-dooming suppression rule). *)
            let est =
              Time.add qdelay
                (Time.add predicted
                   (Time.add req_leg.extra_wait ver_leg.extra_wait))
            in
            let doomed =
              match deadline with
              | None -> false
              | Some budget -> Time.compare est budget > 0
            in
            let live = caching && not (lost || doomed) in
            let vgen = gen ~holder:gsite ~source:tsite in
            (* Only a live group's wire keys are ever inserted. *)
            let wire, wire_keys, hits =
              if live then consult_verdicts verdict_cache ~gen:vgen ~stale g
              else (reqs, [], [])
            in
            verdict_hits := !verdict_hits + List.length hits;
            (* Serve the shipped subset; with the cache hits it makes the
               full set that anchors the fault-free reference answer. With
               no hit (a dead round trip, caching off or all misses) the
               wire is every request, served once in the memo. *)
            let served_wire =
              if hits = [] then g.c_batch.Strategy.served
              else Checks.serve ~tracer fed ~db:target wire
            in
            if live then
              List.iter2
                (fun key (v : Checks.verdict) ->
                  Lru.add verdict_cache ~gen:vgen ~key
                    ~bytes:(Wire.verdict_bytes c) v.Checks.truth)
                wire_keys served_wire.Checks.verdicts;
            {
              g_origin = origin;
              g_target = target;
              g_all = reqs;
              g_wire = wire;
              g_hits = hits;
              g_full_verdicts = hits @ served_wire.Checks.verdicts;
              g_wire_read_bytes = Wire.check_read_bytes c wire;
              g_wire_serve_units = units_of_work served_wire.Checks.work;
              g_wire_verdicts = List.length served_wire.Checks.verdicts;
              g_req_leg = req_leg;
              g_ver_leg = ver_leg;
              g_doomed = doomed;
              g_deadline_est = (if doomed then est else Time.zero);
            })
          pm.m_groups
      in
      (* Certification: the memo's, over every served verdict, is the
         full-delivery reference. Cache hits change only simulated time,
         never a verdict, so it stands for this arrival's — unless a hit
         disagreed with its served verdict. Lost and doomed groups withhold
         their verdicts, and [Strategy.degrade] decides what that means. *)
      let results = pm.m_plan.Strategy.results in
      let certify withheld =
        Certify.run ~multi_valued:opts.Strategy.multi_valued ~tracer fed
          m.q_analysis ~results
          ~verdicts:
            (pm.m_plan.Strategy.local_verdicts
            @ List.concat_map
                (fun g -> if List.memq g withheld then [] else g.g_full_verdicts)
                groups)
      in
      let ff = if !stale then certify [] else pm.m_ff in
      let withhold gs =
        Strategy.degrade ~results ~reference:ff.Certify.answer
          ~lost:(List.concat_map (fun g -> g.g_all) gs)
          (certify gs).Certify.answer
      in
      let lost_groups = List.filter group_lost groups in
      let doomed_groups =
        List.filter (fun g -> g.g_doomed && not (group_lost g)) groups
      in
      (* The entities the lost groups alone degrade, as the same arrival
         without a deadline would, carry the fault reason; the deadline's
         extra ones carry the deadline reason. *)
      let faulted =
        if lost_groups = [] then ff.Certify.answer else withhold lost_groups
      in
      let answer =
        if doomed_groups = [] then faulted
        else withhold (lost_groups @ doomed_groups)
      in
      let by_fault = Answer.degraded faulted in
      let by_deadline = Oid.Goid.Set.diff (Answer.degraded answer) by_fault in
      let fault_reason =
        lazy
          (Answer.Fault
             (Printf.sprintf "check batch lost: %s"
                (String.concat "; "
                   (List.map
                      (fun g ->
                        Printf.sprintf "%s->%s after %d attempts" g.g_origin
                          g.g_target
                          (max g.g_req_leg.attempts g.g_ver_leg.attempts))
                      lost_groups))))
      in
      let deadline_reason =
        lazy
          (Answer.Deadline
             {
               elapsed_us =
                 Time.to_us
                   (List.fold_left
                      (fun acc g -> Time.max acc g.g_deadline_est)
                      Time.zero doomed_groups);
               budget_us =
                 (match deadline with Some b -> Time.to_us b | None -> 0.0);
             })
      in
      let reasons goids why =
        List.map (fun g -> (g, Lazy.force why)) (Oid.Goid.Set.elements goids)
      in
      let answer =
        Answer.annotate_degraded answer
          ~reasons:
            (reasons by_fault fault_reason @ reasons by_deadline deadline_reason)
      in
      (* Cache provenance: rows certified through at least one cache-served
         verdict. *)
      let answer =
        Answer.mark_cached answer
          ~goids:
            (Strategy.entities_referencing results
               (List.concat_map
                  (fun g ->
                    List.map
                      (fun (v : Checks.verdict) ->
                        (v.Checks.origin_db, v.Checks.item, v.Checks.atom))
                      g.g_hits)
                  groups))
      in
      {
        p_index = index;
        p_strategy = st;
        p_arrival = at;
        p_deadline = deadline;
        p_plan = Localized { locals; groups };
        p_answer = answer;
        p_certify_units =
          units_of_work ff.Certify.work + ff.Certify.goid_lookups
          + !verdict_hits;
        p_extent_hits = !extent_hits;
        p_verdict_hits = !verdict_hits;
        p_deadline_demoted = Oid.Goid.Set.cardinal by_deadline;
        p_registry = registry;
      }

(* ------------------------------------------------------------------ *)
(* Engine pass: charge the shared simulated clock. *)

type contrib = {
  b_query : int;
  b_origin_site : int;
  b_n_reqs : int;  (* wire requests carried *)
  b_payload : int;  (* request bytes, without framing *)
  b_read_bytes : int;
  b_serve_units : int;
  b_verdict_bytes : int;  (* without framing *)
  b_promise : Engine.handle;
  b_reg : Metrics.t;
  b_strategy : Strategy.t;
}

type batch_state = { mutable contribs : contrib list (* reverse order *) }

type ctx = {
  cfg : config;
  fed : Federation.t;
  eng : Engine.t;
  wl : Metrics.t;
  gsite : int;
  batchers : (int, batch_state) Hashtbl.t;
  mutable messages : int;
  mutable coalesced : int;
}

let sched_of ctx = ctx.cfg.options.Strategy.fault
let cost_of ctx = ctx.cfg.options.Strategy.cost

let bump reg name labels n =
  if n <> 0 then Metrics.inc (Metrics.counter reg ~labels name) n

let q_labels st phase = [ ("strategy", Strategy.to_string st); ("phase", phase) ]

(* The span context every serve-path engine task carries: the owning
   query's trace id (the causal parent edges are the dependency tids the
   engine records on its own). *)
let qattr index = [ ("trace", Printf.sprintf "q%d" index) ]

let disk_task ctx reg st ~site ~phase ~attrs ~label ~bytes ~deps =
  bump reg "msdq_disk_bytes_total" (q_labels st phase) bytes;
  Engine.task ctx.eng ~deps ~site ~kind:Resource.Disk ~label
    ~attrs:(("strategy", Strategy.to_string st) :: ("phase", phase) :: attrs)
    ~duration:(Cost.disk (cost_of ctx) ~bytes)
    ()

let cpu_task ctx reg st ~site ~phase ~attrs ~label ~units ~deps =
  bump reg "msdq_work_units_total" (q_labels st phase) units;
  Engine.task ctx.eng ~deps ~site ~kind:Resource.Cpu ~label
    ~attrs:(("strategy", Strategy.to_string st) :: ("phase", phase) :: attrs)
    ~duration:(Cost.cpu (cost_of ctx) ~units)
    ()

let net_duration ctx ~dst ~label ~at ~bytes =
  Fault.stretch (sched_of ctx) ~dst ~label ~start:at
    (Cost.net (cost_of ctx) ~bytes)

(* A serve-path message that is never lost: waits out a destination outage
   (computed at send time from the schedule), then occupies the
   destination's link. [payload] excludes the framing header; callers
   attribute shipped bytes to the owning queries' registries themselves
   (a coalesced message splits its payload across contributors). Returns a
   promise completed at delivery. *)
let critical_transfer ctx ~src ~dst ~payload ~label ~deps ?(attrs = [])
    ?(on_delivered = fun () -> ()) () =
  let sched = sched_of ctx in
  let bytes = payload + msg_header_bytes in
  ctx.messages <- ctx.messages + 1;
  bump ctx.wl "msdq_messages_total" [ ("path", "serve") ] 1;
  let p = Engine.promise ctx.eng ~label:(label ^ ":done") in
  let send () =
    let now = Engine.now ctx.eng in
    let deps =
      if Fault.site_down sched ~site:dst ~at:now then
        match Fault.next_up sched ~site:dst ~at:now with
        | Some up ->
            [
              Engine.delay ctx.eng ~label:(label ^ ":wait-up") ~attrs
                ~duration:(Time.sub up now) ();
            ]
        | None -> [] (* permanent outage: documented as unreachable-for-
                        checks only; critical sends proceed *)
      else []
    in
    ignore
      (Engine.transfer ctx.eng ~deps ~src ~dst ~label ~attrs
         ~duration:(net_duration ctx ~dst ~label ~at:now ~bytes)
         ~on_complete:(fun () ->
           on_delivered ();
           Engine.resolve ctx.eng p)
         ())
  in
  ignore
    (Engine.fence ctx.eng ~deps ~label:(label ^ ":ready") ~attrs
       ~on_complete:send ());
  p

(* Flush one coalesced batch to [tsite]: one request message per
   contributing origin site, one read + serve at the target, one verdict
   message to the global site, then every contributor's promise resolves. *)
let flush ctx ~target_db ~tsite contribs =
  let contribs = List.rev contribs in
  let by_origin = Hashtbl.create 4 in
  let origin_order = ref [] in
  List.iter
    (fun c ->
      match Hashtbl.find_opt by_origin c.b_origin_site with
      | Some acc -> acc := c :: !acc
      | None ->
          Hashtbl.add by_origin c.b_origin_site (ref [ c ]);
          origin_order := c.b_origin_site :: !origin_order)
    contribs;
  (* A coalesced message belongs to one query's trace when it carries a
     single query's checks, and to the shared [batch] trace otherwise. *)
  let trace_of cs =
    match List.sort_uniq compare (List.map (fun c -> c.b_query) cs) with
    | [ q ] -> qattr q
    | _ -> [ ("trace", "batch") ]
  in
  let req_done =
    List.map
      (fun osite ->
        let cs = List.rev !(Hashtbl.find by_origin osite) in
        let queries =
          List.sort_uniq compare (List.map (fun c -> c.b_query) cs)
        in
        (* Checks that shared a message with another query's checks. *)
        if List.length queries > 1 then
          ctx.coalesced <-
            ctx.coalesced + List.fold_left (fun acc c -> acc + c.b_n_reqs) 0 cs;
        (* Per-query payloads share one message and one header. *)
        let payload = List.fold_left (fun acc c -> acc + c.b_payload) 0 cs in
        List.iter
          (fun c ->
            bump c.b_reg "msdq_bytes_shipped_total" (q_labels c.b_strategy "O")
              c.b_payload)
          cs;
        critical_transfer ctx ~src:osite ~dst:tsite ~payload
          ~label:(Printf.sprintf "serve:ship-requests:%s" target_db)
          ~attrs:(trace_of cs) ~deps:[] ())
      (List.rev !origin_order)
  in
  (* The target's disk and CPU are FIFO, so per-contributor tasks keep the
     timing of one fused batch task while attributing work to the query
     that caused it. *)
  let evals =
    List.map
      (fun c ->
        let read =
          disk_task ctx c.b_reg c.b_strategy ~site:tsite ~phase:"O"
            ~attrs:(qattr c.b_query)
            ~label:(Printf.sprintf "serve:check-read:%s" target_db)
            ~bytes:c.b_read_bytes ~deps:req_done
        in
        cpu_task ctx c.b_reg c.b_strategy ~site:tsite ~phase:"O"
          ~attrs:(qattr c.b_query)
          ~label:(Printf.sprintf "serve:check-eval:%s" target_db)
          ~units:c.b_serve_units ~deps:[ read ])
      contribs
  in
  let verdict_payload =
    List.fold_left (fun acc c -> acc + c.b_verdict_bytes) 0 contribs
  in
  List.iter
    (fun c ->
      bump c.b_reg "msdq_bytes_shipped_total" (q_labels c.b_strategy "O")
        c.b_verdict_bytes)
    contribs;
  ignore
    (critical_transfer ctx ~src:tsite ~dst:ctx.gsite
       ~payload:verdict_payload
       ~label:(Printf.sprintf "serve:ship-verdicts:%s" target_db)
       ~attrs:(trace_of contribs) ~deps:evals
       ~on_delivered:(fun () ->
         List.iter (fun c -> Engine.resolve ctx.eng c.b_promise) contribs)
       ())

(* Hand a contribution to the target site's admission window. With a zero
   window it flushes alone; otherwise the first contribution opens the
   window and every contribution arriving before expiry rides along. *)
let batcher_add ctx ~target_db ~tsite contrib =
  if Time.compare ctx.cfg.window Time.zero <= 0 then
    flush ctx ~target_db ~tsite [ contrib ]
  else
    match Hashtbl.find_opt ctx.batchers tsite with
    | Some b -> b.contribs <- contrib :: b.contribs
    | None ->
        let b = { contribs = [ contrib ] } in
        Hashtbl.add ctx.batchers tsite b;
        ignore
          (Engine.delay ctx.eng
             ~label:(Printf.sprintf "serve:window:%s" target_db)
             ~duration:ctx.cfg.window
             ~on_complete:(fun () ->
               Hashtbl.remove ctx.batchers tsite;
               flush ctx ~target_db ~tsite b.contribs)
             ())

let build_query ctx (p : prepared) ~completed =
  let st = p.p_strategy in
  let reg = p.p_registry in
  let q = qattr p.p_index in
  let arrive =
    Engine.delay ctx.eng
      ~label:(Printf.sprintf "serve:q%d:arrival" p.p_index)
      ~attrs:q ~duration:p.p_arrival ()
  in
  let finishf handle =
    ignore
      (Engine.fence ctx.eng ~deps:[ handle ]
         ~label:(Printf.sprintf "serve:q%d:answer" p.p_index)
         ~attrs:q
         ~on_complete:(fun () -> completed p.p_index (Engine.now ctx.eng))
         ())
  in
  match p.p_plan with
  | Centralized { ca_ships; ca_units } ->
      let deps =
        List.map
          (fun ((x : Strategy.ca_extent), hit) ->
            let db_name = x.Strategy.ca_db and site = x.Strategy.ca_site in
            let bytes = x.Strategy.extent_bytes in
            if hit then
              cpu_task ctx reg st ~site:ctx.gsite ~phase:"O" ~attrs:q
                ~label:(Printf.sprintf "serve:q%d:cache-extents:%s" p.p_index db_name)
                ~units:1 ~deps:[ arrive ]
            else
              let read =
                disk_task ctx reg st ~site ~phase:"O" ~attrs:q
                  ~label:(Printf.sprintf "serve:q%d:read-extents:%s" p.p_index db_name)
                  ~bytes ~deps:[ arrive ]
              in
              bump reg "msdq_bytes_shipped_total" (q_labels st "O") bytes;
              critical_transfer ctx ~src:site ~dst:ctx.gsite ~payload:bytes
                ~label:(Printf.sprintf "serve:q%d:ship-objects:%s" p.p_index db_name)
                ~attrs:q ~deps:[ read ] ())
          ca_ships
      in
      let integrate =
        cpu_task ctx reg st ~site:ctx.gsite ~phase:"I" ~attrs:q
          ~label:(Printf.sprintf "serve:q%d:integrate-eval" p.p_index)
          ~units:ca_units ~deps
      in
      finishf integrate
  | Localized { locals; groups } ->
      let dispatch_of : (string, Engine.handle) Hashtbl.t = Hashtbl.create 4 in
      let ships =
        List.map
          (fun l ->
            let ph = l.l_phase in
            let db = ph.Strategy.db and site = ph.Strategy.site in
            let read =
              if l.l_read_hit then
                cpu_task ctx reg st ~site ~phase:"P" ~attrs:q
                  ~label:(Printf.sprintf "serve:q%d:cache-extents:%s" p.p_index db)
                  ~units:1 ~deps:[ arrive ]
              else
                disk_task ctx reg st ~site ~phase:"P" ~attrs:q
                  ~label:(Printf.sprintf "serve:q%d:read-extents:%s" p.p_index db)
                  ~bytes:ph.Strategy.read_bytes ~deps:[ arrive ]
            in
            let last =
              match ph.Strategy.probe_units with
              | Some probe_units ->
                  (* PL: probe + dispatch overlap evaluation. *)
                  let probe =
                    cpu_task ctx reg st ~site ~phase:"O" ~attrs:q
                      ~label:(Printf.sprintf "serve:q%d:probe:%s" p.p_index db)
                      ~units:probe_units ~deps:[ read ]
                  in
                  let dispatch =
                    cpu_task ctx reg st ~site ~phase:"O" ~attrs:q
                      ~label:(Printf.sprintf "serve:q%d:dispatch:%s" p.p_index db)
                      ~units:ph.Strategy.dispatch_units ~deps:[ probe ]
                  in
                  Hashtbl.replace dispatch_of db dispatch;
                  cpu_task ctx reg st ~site ~phase:"P" ~attrs:q
                    ~label:(Printf.sprintf "serve:q%d:local-eval:%s" p.p_index db)
                    ~units:ph.Strategy.eval_units ~deps:[ dispatch ]
              | None ->
                  let eval =
                    cpu_task ctx reg st ~site ~phase:"P" ~attrs:q
                      ~label:(Printf.sprintf "serve:q%d:local-eval:%s" p.p_index db)
                      ~units:ph.Strategy.eval_units ~deps:[ read ]
                  in
                  if
                    ph.Strategy.dispatch_units > 0
                    || ph.Strategy.built.Checks.requests <> []
                  then begin
                    let dispatch =
                      cpu_task ctx reg st ~site ~phase:"O" ~attrs:q
                        ~label:(Printf.sprintf "serve:q%d:dispatch:%s" p.p_index db)
                        ~units:ph.Strategy.dispatch_units ~deps:[ eval ]
                    in
                    Hashtbl.replace dispatch_of db dispatch;
                    dispatch
                  end
                  else eval
            in
            bump reg "msdq_bytes_shipped_total" (q_labels st "I")
              ph.Strategy.ship_bytes;
            critical_transfer ctx ~src:site ~dst:ctx.gsite
              ~payload:ph.Strategy.ship_bytes
              ~label:(Printf.sprintf "serve:q%d:ship-results:%s" p.p_index db)
              ~attrs:q ~deps:[ last ] ())
          locals
      in
      let c = cost_of ctx in
      let group_promises =
        List.filter_map
          (fun g ->
            if g.g_wire = [] && not (group_lost g) && not g.g_doomed then None
            else begin
              let osite = Federation.site_of ctx.fed g.g_origin in
              let tsite = Federation.site_of ctx.fed g.g_target in
              let dispatch =
                match Hashtbl.find_opt dispatch_of g.g_origin with
                | Some h -> h
                | None -> arrive
              in
              let promise =
                Engine.promise ctx.eng
                  ~label:
                    (Printf.sprintf "serve:q%d:checks:%s->%s" p.p_index
                       g.g_origin g.g_target)
              in
              if g.g_doomed then begin
                (* Deadline abandonment: the anytime answer waits out the
                   query's budget from its arrival, then gives up the round
                   trip without putting anything on the wire. The rows it
                   alone certified already demoted in [prepare]; the local
                   result ships still feed certification — that is the
                   anytime floor. *)
                bump ctx.wl "msdq_checks_abandoned_total" []
                  (List.length g.g_all);
                let budget =
                  match p.p_deadline with Some b -> b | None -> Time.zero
                in
                ignore
                  (Engine.delay ctx.eng ~deps:[ arrive ] ~attrs:q
                     ~label:
                       (Printf.sprintf "serve:q%d:deadline:%s->%s" p.p_index
                          g.g_origin g.g_target)
                     ~duration:budget
                     ~on_complete:(fun () -> Engine.resolve ctx.eng promise)
                     ())
              end
              else if group_lost g then begin
                (* Abandoned round trip: its retransmission waits are pure
                   latency (PR-4 precedent); the rows already demoted. *)
                let wait = Time.add g.g_req_leg.extra_wait g.g_ver_leg.extra_wait in
                bump ctx.wl "msdq_fault_drops_total" []
                  (g.g_req_leg.attempts
                  + if g.g_req_leg.delivered then g.g_ver_leg.attempts else 0);
                bump ctx.wl "msdq_checks_abandoned_total" []
                  (List.length g.g_all);
                ignore
                  (Engine.fence ctx.eng ~deps:[ dispatch ] ~attrs:q
                     ~label:(Printf.sprintf "serve:q%d:lost:%s->%s" p.p_index g.g_origin g.g_target)
                     ~on_complete:(fun () ->
                       ignore
                         (Engine.delay ctx.eng
                            ~label:
                              (Printf.sprintf "serve:q%d:abandon:%s->%s"
                                 p.p_index g.g_origin g.g_target)
                            ~attrs:q ~duration:wait
                            ~on_complete:(fun () ->
                              Engine.resolve ctx.eng promise)
                            ()))
                     ())
              end
              else begin
                let retries = g.g_req_leg.attempts - 1 + (g.g_ver_leg.attempts - 1) in
                bump ctx.wl "msdq_fault_retries_total" [] retries;
                bump ctx.wl "msdq_fault_drops_total" [] retries;
                let payload = Wire.requests_bytes c g.g_wire in
                let contrib =
                  {
                    b_query = p.p_index;
                    b_origin_site = osite;
                    b_n_reqs = List.length g.g_wire;
                    b_payload = payload;
                    b_read_bytes = g.g_wire_read_bytes;
                    b_serve_units = g.g_wire_serve_units;
                    b_verdict_bytes = g.g_wire_verdicts * Wire.verdict_bytes c;
                    b_promise = promise;
                    b_reg = reg;
                    b_strategy = st;
                  }
                in
                let clean = retries = 0 in
                ignore
                  (Engine.fence ctx.eng ~deps:[ dispatch ] ~attrs:q
                     ~label:
                       (Printf.sprintf "serve:q%d:dispatch:%s->%s" p.p_index
                          g.g_origin g.g_target)
                     ~on_complete:(fun () ->
                       if clean then
                         batcher_add ctx ~target_db:g.g_target ~tsite contrib
                       else
                         (* A retry-laden round trip cannot share the
                            window: it replays its own waits first, then
                            flushes alone. *)
                         ignore
                           (Engine.delay ctx.eng
                              ~label:
                                (Printf.sprintf "serve:q%d:retry-wait:%s->%s"
                                   p.p_index g.g_origin g.g_target)
                              ~attrs:q
                              ~duration:
                                (Time.add g.g_req_leg.extra_wait
                                   g.g_ver_leg.extra_wait)
                              ~on_complete:(fun () ->
                                flush ctx ~target_db:g.g_target ~tsite
                                  [ contrib ])
                              ()))
                     ())
              end;
              Some promise
            end)
          groups
      in
      let certify =
        cpu_task ctx reg st ~site:ctx.gsite ~phase:"I" ~attrs:q
          ~label:(Printf.sprintf "serve:q%d:certify" p.p_index)
          ~units:p.p_certify_units
          ~deps:(ships @ group_promises)
      in
      finishf certify

(* ------------------------------------------------------------------ *)

let answer_fingerprint answer =
  let buf = Buffer.create 256 in
  List.iter
    (fun (r : Answer.row) ->
      Buffer.add_string buf (Oid.Goid.to_string r.Answer.goid);
      Buffer.add_char buf '|';
      Buffer.add_string buf (Answer.status_to_string r.Answer.status);
      Buffer.add_char buf '|';
      List.iter
        (fun v ->
          Buffer.add_string buf (Value.to_string v);
          Buffer.add_char buf ',')
        r.Answer.values;
      Buffer.add_char buf '\n')
    (Answer.rows answer);
  Oid.Goid.Set.iter
    (fun g ->
      Buffer.add_string buf "degraded ";
      Buffer.add_string buf (Oid.Goid.to_string g);
      (match Answer.degraded_reason answer g with
      | Some why ->
          Buffer.add_string buf ": ";
          Buffer.add_string buf (Answer.reason_to_string why)
      | None -> ());
      Buffer.add_char buf '\n')
    (Answer.degraded answer);
  Buffer.contents buf

let shed_query it cfg ~index ~strategy ~arrival =
  it.shed <-
    {
      s_index = index;
      s_strategy = strategy;
      s_arrival = arrival;
      s_policy = cfg.shed_policy;
    }
    :: it.shed

(* Reject-oldest evicted an already admitted query: it joins the shed. *)
let evict it cfg = function
  | None -> ()
  | Some victim -> (
      match List.find_opt (fun p -> p.p_index = victim) it.admitted with
      | Some vp ->
          it.admitted <- List.filter (fun p -> p.p_index <> victim) it.admitted;
          shed_query it cfg ~index:victim ~strategy:vp.p_strategy
            ~arrival:vp.p_arrival
      | None -> ())

let admit_query it cfg fed tracer m ~args ~qdelay ~predicted index job =
  let p =
    Tracer.with_span tracer ~cat:"serve" ~args "serve.prepare.query"
    @@ fun () -> prepare cfg fed tracer it m ~qdelay ~predicted index job
  in
  it.admitted <- p :: it.admitted;
  p

(* Engine half: charge the prepared workload to one shared simulated clock
   and assemble the outcome. Shared by {!run} (fixed per-job strategies)
   and {!run_auto} (per-query optimizer decisions) — both prepare first,
   then execute, so AUTO can never change what is answered, only when. *)
let execute ~tracer ~trace cfg fed (it : intake) =
  let wl = it.wl in
  let extent_caches = it.extent_caches and verdict_cache = it.verdict_cache in
  let shed = List.sort (fun a b -> compare a.s_index b.s_index) it.shed in
  let max_queue_depth = it.adm.a_max_depth in
  let prepared = List.rev it.admitted in
  let telemetry = cfg.options.Strategy.telemetry in
  let eng = Engine.create ~trace:(trace || telemetry) () in
  Strategy.apply_site_speeds eng cfg.options.Strategy.site_speeds;
  (* Gray slowdowns stretch CPU/disk work at execution time, exactly like
     the solo path's fault judge. Link faults stay host-side (fates are
     precomputed at admission; critical transfers never drop), so the
     judge deliberately leaves Link tasks alone. Only installed when the
     schedule has slowdown windows — otherwise the engine runs judge-free
     as before. *)
  (let sched = cfg.options.Strategy.fault in
   if sched.Fault.slowdowns <> [] then
     Engine.set_judge eng (Fault.slowdown_judge sched));
  let ctx =
    {
      cfg;
      fed;
      eng;
      wl;
      gsite = Federation.global_site fed;
      batchers = Hashtbl.create 4;
      messages = 0;
      coalesced = 0;
    }
  in
  let n = List.length prepared in
  (* Shedding leaves holes in the index space: size completions by the
     largest admitted index, not the admitted count. *)
  let slots =
    List.fold_left (fun m (p : prepared) -> max m (p.p_index + 1)) 1 prepared
  in
  let completions = Array.make slots Time.zero in
  let completed i t = completions.(i) <- t in
  Tracer.with_span tracer ~cat:"serve" "serve.build" (fun () ->
      List.iter (fun p -> build_query ctx p ~completed) prepared);
  Tracer.with_span tracer ~cat:"serve" "serve.run" (fun () -> Engine.run eng);
  let makespan = Array.fold_left Time.max Time.zero completions in
  let reports =
    List.map
      (fun p ->
        bump wl "msdq_deadline_demotions_total"
          [ ("strategy", Strategy.to_string p.p_strategy) ]
          p.p_deadline_demoted;
        {
          index = p.p_index;
          strategy = p.p_strategy;
          arrival = p.p_arrival;
          completed = completions.(p.p_index);
          latency = Time.sub completions.(p.p_index) p.p_arrival;
          answer = p.p_answer;
          extent_hits = p.p_extent_hits;
          verdict_hits = p.p_verdict_hits;
          deadline_demoted = p.p_deadline_demoted;
          registry = p.p_registry;
        })
      prepared
  in
  let extent_stats =
    Hashtbl.fold
      (fun _ cache (acc : Lru.stats) ->
        let s = Lru.stats cache in
        {
          Lru.hits = acc.Lru.hits + s.Lru.hits;
          misses = acc.Lru.misses + s.Lru.misses;
          evictions = acc.Lru.evictions + s.Lru.evictions;
          invalidations = acc.Lru.invalidations + s.Lru.invalidations;
          entries = acc.Lru.entries + s.Lru.entries;
          bytes = acc.Lru.bytes + s.Lru.bytes;
        })
      extent_caches
      {
        Lru.hits = 0;
        misses = 0;
        evictions = 0;
        invalidations = 0;
        entries = 0;
        bytes = 0;
      }
  in
  let verdict_stats = Lru.stats verdict_cache in
  (* Per-destination observed check-leg latency: the modeled one-way
     latency of every delivered leg (inflation and jitter included, retry
     waits excluded — loss is a separate signal), averaged per site. Only
     groups that put requests on the wire have legs: a deadline-doomed
     group or one served wholly from the verdict cache sends nothing. This
     is what a real sender's RTT estimator would see, and what the
     telemetry store records for adaptive timeouts to consult. *)
  let check_latency =
    let c = cfg.options.Strategy.cost in
    let sched = cfg.options.Strategy.fault in
    let gsite = Federation.global_site fed in
    let tbl : (int, float ref * int ref) Hashtbl.t = Hashtbl.create 8 in
    let observe ~site us =
      match Hashtbl.find_opt tbl site with
      | Some (sum, count) ->
          sum := !sum +. us;
          incr count
      | None -> Hashtbl.add tbl site (ref us, ref 1)
    in
    List.iter
      (fun (p : prepared) ->
        match p.p_plan with
        | Centralized _ -> ()
        | Localized { groups; _ } ->
            List.iter
              (fun g ->
                let sent = (not g.g_doomed) && g.g_wire <> [] in
                let tsite = Federation.site_of fed g.g_target in
                let leg ~src ~dst ~payload ~what =
                  let base =
                    Cost.net c ~bytes:(payload + msg_header_bytes)
                  in
                  let d, _ =
                    Fault.link_fate sched ~src ~dst
                      ~label:
                        (Printf.sprintf "serve:q%d:%s->%s:%s" p.p_index
                           g.g_origin g.g_target what)
                      ~start:p.p_arrival ~duration:base ()
                  in
                  Time.to_us d
                in
                if sent && g.g_req_leg.delivered then
                  observe ~site:tsite
                    (leg ~src:(Federation.site_of fed g.g_origin) ~dst:tsite
                       ~payload:(Wire.requests_bytes c g.g_wire)
                       ~what:"req");
                if sent && g.g_req_leg.delivered && g.g_ver_leg.delivered then
                  observe ~site:gsite
                    (leg ~src:tsite ~dst:gsite
                       ~payload:(g.g_wire_verdicts * Wire.verdict_bytes c)
                       ~what:"verdict"))
              groups)
      prepared;
    Hashtbl.fold
      (fun site (sum, count) acc ->
        (site, !sum /. float_of_int !count, !count) :: acc)
      tbl []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let cache_counters label (s : Lru.stats) =
    bump wl "msdq_cache_hits_total" [ ("cache", label) ] s.Lru.hits;
    bump wl "msdq_cache_misses_total" [ ("cache", label) ] s.Lru.misses;
    bump wl "msdq_cache_evictions_total" [ ("cache", label) ] s.Lru.evictions;
    bump wl "msdq_cache_invalidations_total" [ ("cache", label) ]
      s.Lru.invalidations
  in
  cache_counters "extent" extent_stats;
  cache_counters "verdict" verdict_stats;
  bump wl "msdq_coalesced_checks_total" [] ctx.coalesced;
  List.iter
    (fun s ->
      bump wl "msdq_shed_total"
        [ ("policy", shed_policy_to_string s.s_policy) ]
        1)
    shed;
  Metrics.set
    (Metrics.gauge wl "msdq_queue_depth")
    (float_of_int max_queue_depth);
  let entries = Trace.entries (Engine.trace eng) in
  if telemetry then begin
    Strategy.record_latency_histograms wl entries;
    List.iter
      (fun r ->
        Strategy.observe_query_latency wl ~sname:(Strategy.to_string r.strategy)
          r.latency)
      reports
  end;
  {
    reports;
    shed;
    makespan;
    throughput =
      (if Time.compare makespan Time.zero > 0 then
         float_of_int n /. Time.to_s makespan
       else 0.0);
    extent_cache = extent_stats;
    verdict_cache = verdict_stats;
    messages = ctx.messages;
    coalesced_checks = ctx.coalesced;
    max_queue_depth;
    check_latency;
    registry = wl;
    trace = entries;
  }

(* One arrival through the bounded queue. Returns [`Shed] or
   [`Admit (strategy, qdelay, predicted response, evicted index)].
   [degrade_to] supplies the cheapest predicted plan (only consulted when
   the Degrade policy fires over capacity); [predicted] maps a strategy to
   its [(total, response)] Planner prediction. The virtual single-server
   queue charges each query its predicted {e total} work: a single server
   has no idle parallelism to exploit, so total charged work — not the
   critical-path response the model credits with cross-site overlap — is
   the occupancy unit, and over-estimating service sheds early, the safe
   direction for a tail-latency bound. Deadline fating keeps using the
   response: the budget races the verdicts' critical path, not the
   server's occupancy. *)
let admission_step adm cfg ~index ~arrival ~deadline ~strategy ~degrade_to
    ~predicted =
  let admit ~evicted st =
    let service, response = predicted st in
    let qdelay = admission_push adm ~index ~arrival ~service in
    admission_observe_miss adm ~deadline ~qdelay ~service:response;
    `Admit (st, qdelay, response, evicted)
  in
  if not (over_capacity adm ~at:arrival) then admit ~evicted:None strategy
  else
    match cfg.shed_policy with
    | Degrade -> admit ~evicted:None (degrade_to ())
    | Reject_newest -> `Shed
    | Reject_oldest -> (
        match admission_evict_oldest adm ~at:arrival with
        | Some victim -> admit ~evicted:(Some victim) strategy
        | None -> `Shed)

let run ?(tracer = Tracer.disabled) ?registry ?(trace = false) cfg fed jobs =
  validate cfg jobs;
  let it = intake_create ?registry cfg fed in
  let cost = cfg.options.Strategy.cost in
  (* Predictions cost catalog work; skip them entirely when no overload
     control is configured, so unbounded serving is byte-for-byte the
     pre-overload engine. *)
  let need_pred =
    cfg.deadline <> None || cfg.queue_limit <> None
    || List.exists (fun (j : job) -> j.deadline <> None) jobs
  in
  Tracer.with_span tracer ~cat:"serve" "serve.prepare" (fun () ->
      List.iteri
        (fun i (j : job) ->
          let m = query_memo it cfg fed tracer j.analysis in
          let deadline =
            match j.deadline with Some _ as d -> d | None -> cfg.deadline
          in
          match
            admission_step it.adm cfg ~index:i ~arrival:j.arrival ~deadline
              ~strategy:j.strategy
              ~degrade_to:(fun () ->
                fst
                  (Planner.choose ~cost ~strategies:Optimizer.candidates
                     ~objective:Planner.Response_time fed j.analysis))
              ~predicted:(fun st ->
                if need_pred then predicted_memo cfg fed m st
                else (Time.zero, Time.zero))
          with
          | `Shed ->
              shed_query it cfg ~index:i ~strategy:j.strategy ~arrival:j.arrival
          | `Admit (st, qdelay, response, evicted) ->
              evict it cfg evicted;
              ignore
                (admit_query it cfg fed tracer m
                   ~args:[ ("query", string_of_int i) ]
                   ~qdelay ~predicted:response i
                   { j with strategy = st }))
        jobs);
  execute ~tracer ~trace cfg fed it

(* ------------------------------------------------------------------ *)
(* AUTO: adaptive per-query strategy selection with breaker-driven
   re-planning. *)

type auto_decision = {
  d_index : int;
  d_arrival : Time.t;
  d_preferred : Strategy.t;
  d_chosen : Strategy.t;
  d_switched : bool;
  d_reason : string option;
}

type auto_outcome = {
  auto : outcome;
  decisions : auto_decision list;
  switches : int;
}

let run_auto ?(tracer = Tracer.disabled) ?registry ?(trace = false) ?store
    ?objective cfg fed jobs =
  (* The optimizer only ever picks serve-supported strategies
     ([Optimizer.candidates] = CA, BL, PL), so validation with a fixed
     placeholder checks exactly the config and arrival constraints. *)
  validate cfg
    (List.map
       (fun (analysis, arrival) ->
         { strategy = Strategy.Bl; analysis; arrival; deadline = None })
       jobs);
  let it = intake_create ?registry cfg fed in
  let wl = it.wl in
  let sched = cfg.options.Strategy.fault in
  let breaker =
    Recovery.Breaker.create
      ~threshold:cfg.options.Strategy.recovery.Recovery.breaker_threshold
      ~sched ()
  in
  let switches = ref 0 in
  let rev_decisions = ref [] in
  (* Gray detection: a per-site EWMA over "slow check leg" observations
     from earlier queries. A delivered leg counts as slow when adaptive
     timeouts are armed and its latency exceeds the site's fault-free
     baseline by [gray_slow_ratio] — in the simulation the observed/
     baseline ratio is exactly the schedule's stretch (link inflation, or
     the target's slowdown factor for the serving work), so the detector
     reduces to comparing the stretch itself. Purely causal: query i's
     decision sees only legs of queries < i, and static-timeout runs never
     mark anything gray (the historical behaviour). *)
  let adaptive_on = cfg.options.Strategy.retry.Strategy.adaptive <> None in
  let gray_ewma : (int, float ref) Hashtbl.t = Hashtbl.create 8 in
  let gray_cell site =
    match Hashtbl.find_opt gray_ewma site with
    | Some r -> r
    | None ->
        let r = ref 0.0 in
        Hashtbl.add gray_ewma site r;
        r
  in
  Tracer.with_span tracer ~cat:"serve" "serve.prepare" (fun () ->
      List.iteri
        (fun i (analysis, arrival) ->
          (* Mid-stream re-planning: a link whose breaker opened on earlier
             queries' check legs is degraded for every query admitted before
             its half-open probe instant. *)
          let degraded =
            List.filter_map
              (fun (db_name, _) ->
                let site = Federation.site_of fed db_name in
                if Recovery.Breaker.live breaker ~site ~at:arrival then None
                else Some site)
              (Federation.databases fed)
          in
          let gray =
            Hashtbl.fold
              (fun site r acc ->
                if !r > gray_threshold then site :: acc else acc)
              gray_ewma []
          in
          (* Backpressure: the virtual queue's depth plus the deadline-miss
             EWMA penalize expensive candidates inside the optimizer. *)
          let overload = admission_overload it.adm ~at:arrival in
          let m = query_memo it cfg fed tracer analysis in
          let d =
            Optimizer.decide ~predictions:(Lazy.force m.q_auto) ?store
              ?objective ~degraded ~gray ~overload fed analysis
          in
          if d.Optimizer.cause = Some Optimizer.Gray_site then
            bump wl "msdq_gray_fallbacks_total" [] 1;
          let predicted_of st =
            match
              List.find_opt
                (fun pr -> pr.Planner.strategy = st)
                d.Optimizer.predictions
            with
            | Some pr -> (pr.Planner.total, pr.Planner.response)
            | None -> predicted_memo cfg fed m st
          in
          match
            admission_step it.adm cfg ~index:i ~arrival ~deadline:cfg.deadline
              ~strategy:d.Optimizer.chosen
              ~degrade_to:(fun () ->
                match
                  List.sort
                    (fun a b ->
                      Float.compare
                        (Time.to_us a.Planner.response)
                        (Time.to_us b.Planner.response))
                    d.Optimizer.predictions
                with
                | best :: _ -> best.Planner.strategy
                | [] -> d.Optimizer.chosen)
              ~predicted:predicted_of
          with
          | `Shed ->
              shed_query it cfg ~index:i ~strategy:d.Optimizer.chosen ~arrival
          | `Admit (st, qdelay, response, evicted) ->
              evict it cfg evicted;
              let forced = st <> d.Optimizer.chosen in
              if d.Optimizer.switched || forced then incr switches;
              bump wl "msdq_auto_decisions_total"
                [ ("strategy", Strategy.to_string st) ]
                1;
              rev_decisions :=
                {
                  d_index = i;
                  d_arrival = arrival;
                  d_preferred = d.Optimizer.preferred;
                  d_chosen = st;
                  d_switched = d.Optimizer.switched || forced;
                  d_reason =
                    (if forced then
                       Some
                         (Printf.sprintf
                            "over capacity: degraded plan to cheapest \
                             predicted (%s)"
                            (Strategy.to_string st))
                     else d.Optimizer.reason);
                }
                :: !rev_decisions;
              let p =
                admit_query it cfg fed tracer m
                  ~args:
                    [
                      ("query", string_of_int i);
                      ("strategy", Strategy.to_string st);
                    ]
                  ~qdelay ~predicted:response i
                  { strategy = st; analysis; arrival; deadline = None }
              in
              (* Feed the breaker from this query's check-request legs
                 (request legs only — verdict legs terminate at the global
                 site, which has no alternative route; see
                 {!Recovery.Breaker}). *)
              (match p.p_plan with
              | Centralized _ -> ()
              | Localized { groups; _ } ->
                List.iter
                  (fun g ->
                    let tsite = Federation.site_of fed g.g_target in
                    let leg = g.g_req_leg in
                    let failures =
                      if leg.delivered then leg.attempts - 1 else leg.attempts
                    in
                    for _ = 1 to failures do
                      Recovery.Breaker.failure breaker ~site:tsite ~at:arrival
                    done;
                    if leg.delivered then
                      Recovery.Breaker.success breaker ~site:tsite;
                    (* Feed the gray EWMA from every leg the detector could
                       time: delivered legs observe their stretch, and a
                       leg that was not slow decays the signal. *)
                    if adaptive_on && leg.delivered then begin
                      let stretch =
                        Float.max
                          (match Fault.link_of sched tsite with
                          | Some l -> l.Fault.inflate
                          | None -> 1.0)
                          (Fault.slow_factor sched ~site:tsite ~at:arrival)
                      in
                      let slow = stretch >= gray_slow_ratio in
                      if slow then bump wl "msdq_gray_slow_legs_total" [] 1;
                      let cell = gray_cell tsite in
                      cell :=
                        ((1.0 -. gray_alpha) *. !cell)
                        +. (gray_alpha *. if slow then 1.0 else 0.0)
                    end)
                  groups))
        jobs);
  bump wl "msdq_auto_switches_total" [] !switches;
  let outcome = execute ~tracer ~trace cfg fed it in
  { auto = outcome; decisions = List.rev !rev_decisions; switches = !switches }
