open Msdq_odb
open Msdq_simkit
open Msdq_fed
open Msdq_query
module Metrics = Msdq_obs.Metrics
module Tracer = Msdq_obs.Tracer
module Fault = Msdq_fault.Fault

let log_src = Logs.Src.create "msdq.exec" ~doc:"query execution strategies"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = Ca | Bl | Pl | Bls | Pls | Lo | Cf

let all = [ Ca; Bl; Pl; Bls; Pls; Lo; Cf ]

let to_string = function
  | Ca -> "CA"
  | Bl -> "BL"
  | Pl -> "PL"
  | Bls -> "BLS"
  | Pls -> "PLS"
  | Lo -> "LO"
  | Cf -> "CF"

let of_string s =
  match String.uppercase_ascii s with
  | "CA" -> Some Ca
  | "BL" -> Some Bl
  | "PL" -> Some Pl
  | "BLS" -> Some Bls
  | "PLS" -> Some Pls
  | "LO" -> Some Lo
  | "CF" -> Some Cf
  | _ -> None

type selection = Fixed of t | Auto

let selection_to_string = function Auto -> "AUTO" | Fixed s -> to_string s

let selection_of_string s =
  match String.uppercase_ascii s with
  | "AUTO" -> Ok Auto
  | other -> (
    match of_string other with
    | Some st -> Ok (Fixed st)
    | None ->
      Error
        (Printf.sprintf
           "unknown strategy %S (accepted: %s, AUTO)" s
           (String.concat ", " (List.map to_string all))))

module Recovery = Recovery

type adaptive = { k : float; lo : Time.t; hi : Time.t }

type retry = {
  timeout : Time.t;
  max_attempts : int;
  backoff : float;
  adaptive : adaptive option;
}

let default_retry =
  { timeout = Time.ms 1.0; max_attempts = 3; backoff = 2.0; adaptive = None }

let default_adaptive = { k = 2.0; lo = Time.us 200.0; hi = Time.ms 4.0 }

type options = {
  cost : Cost.t;
  deep_certify : bool;
  multi_valued : bool;
  site_speeds : (int * float) list;
  fault : Fault.schedule;
  retry : retry;
  recovery : Recovery.policy;
  telemetry : bool;
  latency_of : (int -> float option) option;
}

let default_options =
  {
    cost = Cost.default;
    deep_certify = false;
    multi_valued = false;
    site_speeds = [];
    fault = Fault.none;
    retry = default_retry;
    recovery = Recovery.disabled;
    telemetry = false;
    latency_of = None;
  }

(* The telemetry-driven per-destination retry timeout: clamp(lo, k x ewma,
   hi) over the destination's observed check round-trip latency, falling
   back to the generous [hi] when no observation exists (a new site should
   not be spuriously demoted by an aggressive guess). With [adaptive =
   None] this is the static [retry.timeout] — the historical behaviour. *)
let effective_timeout ?latency_of (r : retry) ~dst =
  match r.adaptive with
  | None -> r.timeout
  | Some a -> (
    match (match latency_of with Some f -> f dst | None -> None) with
    | Some obs_us when Float.is_finite obs_us && obs_us > 0.0 ->
      Time.us
        (Float.max (Time.to_us a.lo)
           (Float.min (Time.to_us a.hi) (a.k *. obs_us)))
    | _ -> a.hi)

(* Eager, readable configuration validation: a bad [site_speeds] entry or a
   malformed fault schedule is reported before any simulated work starts,
   naming the offending site, instead of surfacing later as an engine error
   mid-run. *)
let validate_options options =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (site, factor) ->
      if site < 0 then
        invalid_arg
          (Printf.sprintf "Strategy: site_speeds: negative site id %d" site);
      if Hashtbl.mem seen site then
        invalid_arg
          (Printf.sprintf "Strategy: site_speeds: duplicate site id %d" site);
      Hashtbl.add seen site ();
      if not (Float.is_finite factor) || factor <= 0.0 then
        invalid_arg
          (Printf.sprintf
             "Strategy: site_speeds: site %d has factor %g, must be positive \
              and finite"
             site factor))
    options.site_speeds;
  Fault.validate options.fault;
  if options.retry.max_attempts < 1 then
    invalid_arg "Strategy: retry.max_attempts must be >= 1";
  if not (Time.is_finite options.retry.timeout)
     || Time.compare options.retry.timeout Time.zero < 0
  then invalid_arg "Strategy: retry.timeout must be non-negative and finite";
  if Float.is_nan options.retry.backoff || options.retry.backoff < 1.0 then
    invalid_arg "Strategy: retry.backoff must be >= 1";
  (match options.retry.adaptive with
  | None -> ()
  | Some a ->
    if not (Float.is_finite a.k) || a.k <= 0.0 then
      invalid_arg "Strategy: retry.adaptive.k must be positive and finite";
    if not (Time.is_finite a.lo) || Time.compare a.lo Time.zero < 0 then
      invalid_arg "Strategy: retry.adaptive.lo must be non-negative and finite";
    if not (Time.is_finite a.hi) || Time.compare a.hi a.lo < 0 then
      invalid_arg "Strategy: retry.adaptive.hi must be >= lo and finite");
  Recovery.validate options.recovery

type availability = {
  faults_active : bool;
  failed_sites : int list;
  drops : int;
  retries : int;
  checks_abandoned : int;
  certain_fault_free : int;
  demoted : int;
  recovered : int;
  resurrected : int;
  partial : bool;
  degradation_ratio : float;
}

let no_faults_availability =
  {
    faults_active = false;
    failed_sites = [];
    drops = 0;
    retries = 0;
    checks_abandoned = 0;
    certain_fault_free = 0;
    demoted = 0;
    recovered = 0;
    resurrected = 0;
    partial = false;
    degradation_ratio = 0.0;
  }

type metrics = {
  strategy : t;
  total : Time.t;
  response : Time.t;
  bytes_shipped : int;
  disk_bytes : int;
  messages : int;
  check_requests : int;
  checks_filtered : int;
  work_units : int;
  goid_lookups : int;
  promoted : int;
  eliminated_at_global : int;
  conflicts : int;
  breakdown : (string * Time.t * int) list;
  trace : Trace.t;
  registry : Metrics.t;
  host_spans : Tracer.span list;
  availability : availability;
}

(* Accumulator threaded through graph construction: a per-run metrics
   registry plus the strategy label every series and task carries. Every
   engine task is also tagged with the query's trace id, ["q0"] (the parent
   edges themselves are the dependency tids the engine records in each
   trace entry). *)
type acc = { reg : Metrics.t; sname : string }

let ctr acc ~phase name =
  Metrics.counter acc.reg
    ~labels:[ ("phase", phase); ("strategy", acc.sname) ]
    name

let task_attrs acc ~phase ?db () =
  let base = [ ("strategy", acc.sname); ("phase", phase); ("trace", "q0") ] in
  match db with Some d -> ("db", d) :: base | None -> base

(* Attrs of fences and other phase-less tasks: still strategy-tagged and
   still inside the query's causal tree. *)
let fence_attrs acc = [ ("strategy", acc.sname); ("trace", "q0") ]

let disk_task e acc c ~site ~phase ?db ~label ~bytes ?deps () =
  Metrics.inc (ctr acc ~phase "msdq_disk_bytes_total") bytes;
  Engine.task e ?deps ~site ~kind:Resource.Disk ~label
    ~attrs:(task_attrs acc ~phase ?db ())
    ~duration:(Cost.disk c ~bytes) ()

let cpu_task e acc c ~site ~phase ?db ~label ~units ?deps () =
  Metrics.inc (ctr acc ~phase "msdq_work_units_total") units;
  Engine.task e ?deps ~site ~kind:Resource.Cpu ~label
    ~attrs:(task_attrs acc ~phase ?db ())
    ~duration:(Cost.cpu c ~units) ()

let transfer e acc c ?on_outcome ~src ~dst ~phase ?db ~label ~bytes ?deps () =
  if src <> dst && bytes > 0 then begin
    Metrics.inc (ctr acc ~phase "msdq_bytes_shipped_total") bytes;
    Metrics.inc (ctr acc ~phase "msdq_messages_total") 1
  end;
  Engine.transfer e ?deps ?on_outcome ~src ~dst ~label
    ~attrs:(task_attrs acc ~phase ?db ())
    ~duration:(Cost.net c ~bytes) ()

let bump_goid acc ~phase n =
  Metrics.inc (ctr acc ~phase "msdq_goid_lookups_total") n

let units_of_work w = Meter.units w

(* Heterogeneous hardware: scale a site's CPU and disk (its machine speed);
   the incoming link stays at network speed. *)
let apply_site_speeds e speeds =
  List.iter
    (fun (site, factor) ->
      Engine.set_speed e ~site ~kind:Resource.Cpu ~factor;
      Engine.set_speed e ~site ~kind:Resource.Disk ~factor)
    speeds

(* The outcome of a query once its simulated run has finished. Which legs
   delivered is only known once the engine has run, so the record is
   produced by a closure evaluated after [Engine.run]. *)
type finished = {
  f_answer : Answer.t;
  f_check_requests : int;
  f_checks_filtered : int;
  f_promoted : int;
  f_eliminated : int;
  f_conflicts : int;
  f_availability : availability;
}

(* ------------------------------------------------------------------ *)
(* Legs: the transfers an answer depends on.

   When a fault schedule is installed, transfers can be dropped by the
   engine's judge (destination down at the would-be finish time, or the
   lossy-link draw fired). The builders model what the strategies do
   about it:

   - Every lost attempt charges the simulated clock: the sender waits out a
     timeout (grown by the retry policy's backoff, capped) and retransmits a
     fresh transfer task carrying the same bytes.
   - Check round trips (request shipping and verdict return) retry at most
     [retry.max_attempts] times, then the batch is abandoned: its verdicts
     never reach the global site and the affected items are demoted to
     uncertified maybe results with degraded provenance — LO semantics for
     exactly those items.
   - Result and extent shipments are critical: without them there is no
     answer at all, so they additionally wait out a destination outage (the
     federation directory knows site status) and only give up when the
     destination never recovers or a safety cap trips. An abandoned critical
     transfer turns the whole run into a partial answer: every row is
     reported as an uncertified maybe result.

   Because drop decisions are a pure hash of the schedule and the transfer's
   (destination, label, start), retransmissions get distinct labels and the
   whole execution stays deterministic.

   With the empty schedule no leg can fail, so legs are static: a leg is
   one plain transfer, its continuation runs while the graph is built, and
   follow-on tasks depend on the transfer itself rather than on a promise
   resolved at delivery. Fault-free task graphs therefore carry no
   synchronization events besides the answer fence. *)

type fault_ctx = {
  sched : Fault.schedule;
  fretry : retry;
  f_timeout_of : int -> Time.t;  (* per-destination effective retry timeout *)
  mutable f_drops : int;
  mutable f_retries : int;
  mutable f_abandoned : int;  (* check requests whose round trip was given up *)
  mutable f_partial : bool;  (* a critical transfer was abandoned *)
  mutable f_failovers : int;  (* failover batches dispatched to replicas *)
  mutable f_hedges : int;  (* hedged duplicate batches dispatched *)
  mutable f_recovered : int;  (* rows a retry-only run would have demoted *)
  mutable f_slow : int;  (* delivered round trips over the adaptive threshold *)
}

let new_fault_ctx options =
  {
    sched = options.fault;
    fretry = options.retry;
    f_timeout_of =
      (fun dst ->
        effective_timeout ?latency_of:options.latency_of options.retry ~dst);
    f_drops = 0;
    f_retries = 0;
    f_abandoned = 0;
    f_partial = false;
    f_failovers = 0;
    f_hedges = 0;
    f_recovered = 0;
    f_slow = 0;
  }

(* Legs are static when the schedule is empty. The leg, join and
   availability helpers below are the only code that asks. *)
let static_legs fx = Fault.is_none fx.sched

(* A delivered check round trip to [dst] still counts toward tripping the
   breaker when the destination is gray: its (deterministically) inflated
   round-trip model exceeds the adaptive latency threshold. Benign
   per-transfer jitter is deliberately excluded — only the link's persistent
   inflation factor, the gray signal, trips. *)
let round_trip_slow fx c ~dst ~bytes =
  match fx.fretry.adaptive with
  | None -> false
  | Some _ -> (
    match Fault.link_of fx.sched dst with
    | Some lf when lf.Fault.inflate > 1.0 ->
      Time.compare
        (Time.us (Time.to_us (Cost.net c ~bytes) *. lf.Fault.inflate))
        (fx.f_timeout_of dst)
      > 0
    | Some _ | None -> false)

(* Safety cap on critical retry chains: recoverable schedules converge long
   before this, and a permanent outage is detected directly. *)
let fault_attempt_cap = 64

let retry_wait (r : retry) ~timeout ~attempt =
  let exp = Float.min (float_of_int (attempt - 1)) 6.0 in
  Time.us (Time.to_us timeout *. (r.backoff ** exp))

(* Feeds a check leg's outcome into [dst]'s breaker, if there is one: a
   loss counts as a failure, and a delivered round trip counts as slow when
   [dst] is gray (see [round_trip_slow]). *)
let feed_breaker e fx c ?breaker ~dst ~bytes delivered =
  match breaker with
  | None -> ()
  | Some b ->
    if not delivered then Recovery.Breaker.failure b ~site:dst ~at:(Engine.now e)
    else if round_trip_slow fx c ~dst ~bytes then begin
      fx.f_slow <- fx.f_slow + 1;
      Recovery.Breaker.slow b ~site:dst ~at:(Engine.now e)
    end
    else Recovery.Breaker.success b ~site:dst

(* A failable transfer with retransmission. [k] runs exactly once, with
   whether the payload was ultimately delivered and the handles its
   follow-on tasks must wait on; the returned handle completes once the
   chain has settled.

   A static leg is one plain transfer [h]: [k true [ h ]] runs at once and
   [h] is returned. Otherwise the leg returns a promise, and [k] runs with
   [[]] just before the promise resolves — at that instant the chain has
   already settled. Attempt [i > 1] gets a distinct label so its drop draw
   is independent of attempt 1's.

   When a [breaker] is supplied (check request legs under a recovery
   policy), every outcome feeds the breaker's consecutive-failure count for
   the destination. The breaker never *gates* these primary legs — gating
   them could abandon a chain the retry-only policy would have delivered,
   which would break the dominance invariant; only the recovery layer's own
   extra traffic consults the breaker before dispatching. *)
let retrying_transfer e acc c fx ?breaker ~critical ~src ~dst ~phase ?db
    ~label ~bytes ?(deps = []) ?(k = fun _ _ -> ()) () =
  if static_legs fx then begin
    let h = transfer e acc c ~src ~dst ~phase ?db ~label ~bytes ~deps () in
    k true [ h ];
    h
  end
  else begin
    let settled = Engine.promise e ~label:(label ^ ":settled") in
    let finish delivered =
      if (not delivered) && critical then fx.f_partial <- true;
      k delivered [];
      Engine.resolve e settled
    in
    let cap = if critical then fault_attempt_cap else fx.fretry.max_attempts in
    let base_timeout = fx.f_timeout_of dst in
    (match fx.fretry.adaptive with
    | None -> ()
    | Some _ ->
      Metrics.set
        (Metrics.gauge acc.reg
           ~labels:[ ("strategy", acc.sname); ("site", string_of_int dst) ]
           "msdq_adaptive_timeout_us")
        (Time.to_us base_timeout));
    let rec attempt i ~deps =
      let alabel = if i = 1 then label else Printf.sprintf "%s~retry%d" label i in
      ignore
        (transfer e acc c ~src ~dst ~phase ?db ~label:alabel ~bytes ~deps
           ~on_outcome:(fun outcome ->
             let delivered = outcome = Engine.Delivered in
             feed_breaker e fx c ?breaker ~dst ~bytes delivered;
             if delivered then finish true
             else begin
               fx.f_drops <- fx.f_drops + 1;
               if i >= cap then finish false
               else begin
                 let now = Engine.now e in
                 let wait =
                   if critical && Fault.site_down fx.sched ~site:dst ~at:now then
                     (* Wait for the destination to come back rather than
                        hammering a site known to be down. *)
                     match Fault.next_up fx.sched ~site:dst ~at:now with
                     | None -> None  (* it never does *)
                     | Some up -> Some (Time.add (Time.sub up now) base_timeout)
                   else Some (retry_wait fx.fretry ~timeout:base_timeout ~attempt:i)
                 in
                 match wait with
                 | None -> finish false
                 | Some wait ->
                   fx.f_retries <- fx.f_retries + 1;
                   let d =
                     Engine.delay e ~label:(label ^ ":timeout") ~duration:wait ()
                   in
                   attempt (i + 1) ~deps:[ d ]
               end
             end)
           ())
    in
    attempt 1 ~deps;
    settled
  end

(* A failover/hedge leg. Recovery traffic is modelled as pure latency: each
   leg charges the simulated clock, the lossy link's inflation factor and
   the same deterministic drop draw as a real transfer into [dst] — site
   crashes at the would-be arrival drop it, retries back off under the same
   [retry] policy — but it occupies no link resource. That keeps the
   primary task schedule of a recovery-enabled run bit-identical to its
   retry-only counterpart: recovery can only add answers, never perturb a
   primary leg's start time (and hence its drop draw), which is what makes
   the dominance invariant demoted(recovery) <= demoted(retry-only)
   structural rather than statistical.

   When a [breaker] is supplied (request legs), the attempt is gated at
   submission: an open breaker fails the leg without charging anything, and
   every outcome feeds the destination's consecutive-failure count.
   Recovery legs only arise after a loss, so they are never static. *)
let recovery_transfer e acc c fx ?breaker ~src ~dst ~phase ?db ~label ~bytes
    ?(deps = []) ~k () =
  let settled = Engine.promise e ~label:(label ^ ":settled") in
  let finish delivered =
    k delivered;
    Engine.resolve e settled
  in
  let gate_allows () =
    match breaker with
    | None -> true
    | Some b -> Recovery.Breaker.allow b ~site:dst ~at:(Engine.now e)
  in
  let feed = feed_breaker e fx c ?breaker ~dst ~bytes in
  let base_timeout = fx.f_timeout_of dst in
  let rec attempt i ~deps =
    let alabel = if i = 1 then label else Printf.sprintf "%s~retry%d" label i in
    ignore
      (Engine.fence e ~deps ~label:(alabel ^ ":go")
         ~on_complete:(fun () ->
           if not (gate_allows ()) then finish false
           else if src = dst || bytes = 0 then begin
             (* local or empty: free and infallible, like Engine.transfer *)
             feed true;
             finish true
           end
           else begin
             Metrics.inc (ctr acc ~phase "msdq_bytes_shipped_total") bytes;
             Metrics.inc (ctr acc ~phase "msdq_messages_total") 1;
             let start = Engine.now e in
             let base = Cost.net c ~bytes in
             let duration, drop_reason =
               Fault.link_fate fx.sched ~src ~dst ~label:alabel ~start
                 ~duration:base ()
             in
             let dropped = drop_reason <> None in
             ignore
               (Engine.delay e ~label:alabel
                  ~attrs:(task_attrs acc ~phase ?db ())
                  ~duration
                  ~on_complete:(fun () ->
                    feed (not dropped);
                    if not dropped then finish true
                    else begin
                      fx.f_drops <- fx.f_drops + 1;
                      if i >= fx.fretry.max_attempts then finish false
                      else begin
                        fx.f_retries <- fx.f_retries + 1;
                        let d =
                          Engine.delay e ~label:(label ^ ":timeout")
                            ~duration:
                              (retry_wait fx.fretry ~timeout:base_timeout
                                 ~attempt:i)
                            ()
                        in
                        attempt (i + 1) ~deps:[ d ]
                      end
                    end)
                  ())
           end)
         ())
  in
  attempt 1 ~deps;
  settled

(* A join some leg's continuation settles. With dynamic legs it is a
   promise, resolved at settlement; with static legs it is the handles the
   continuation received, known by the time the graph is built. *)
type join = Promised of Engine.handle | Static of Engine.handle list ref

let join e fx ~label =
  if static_legs fx then Static (ref []) else Promised (Engine.promise e ~label)

let settle e j deps =
  match j with Promised p -> Engine.resolve e p | Static r -> r := deps

let joined = function Promised p -> [ p ] | Static r -> !r

(* The answer of a graph whose tail can only be built once every chain in
   [deps] has settled: [k] submits the tail, given the handles it must
   wait on, and returns its last task. With static legs [k] runs now and
   "answer" is a fence after its result. Otherwise a "collect" fence runs
   [k] (with [[]]) when [deps] complete, and an "answer" promise, resolved
   by an "answer-ready" fence after [k]'s result, marks the answer in the
   trace. *)
let answer_after e acc fx ~deps k =
  if static_legs fx then begin
    let last = k deps in
    ignore
      (Engine.fence e ~deps:[ last ] ~attrs:(fence_attrs acc) ~label:"answer" ())
  end
  else begin
    let answer = Engine.promise e ~label:"answer" in
    ignore
      (Engine.fence e ~deps ~label:"collect"
         ~on_complete:(fun () ->
           let last = k [] in
           ignore
             (Engine.fence e ~deps:[ last ] ~attrs:(fence_attrs acc)
                ~label:"answer-ready"
                ~on_complete:(fun () -> Engine.resolve e answer)
                ()))
         ())
  end

let availability_of fx ?(recovered = 0) ~ref_answer ~final_answer () =
  if static_legs fx then no_faults_availability
  else
    let refc = Answer.goids ref_answer Answer.Certain in
    let refm = Answer.goids ref_answer Answer.Maybe in
    let demoted =
      Oid.Goid.Set.cardinal
        (Oid.Goid.Set.diff refc (Answer.goids final_answer Answer.Certain))
    in
    let resurrected =
      Oid.Goid.Set.cardinal
        (Oid.Goid.Set.diff
           (Answer.goids final_answer Answer.Maybe)
           (Oid.Goid.Set.union refc refm))
    in
    let n_ref = Oid.Goid.Set.cardinal refc in
    {
      faults_active = true;
      failed_sites = Fault.failed_sites fx.sched;
      drops = fx.f_drops;
      retries = fx.f_retries;
      checks_abandoned = fx.f_abandoned;
      certain_fault_free = n_ref;
      demoted;
      recovered;
      resurrected;
      partial = fx.f_partial;
      degradation_ratio =
        (if n_ref = 0 then 0.0 else float_of_int demoted /. float_of_int n_ref);
    }

(* ------------------------------------------------------------------ *)
(* The plans, computed host-side: what each database evaluates, reads and
   ships, which assistant checks go to which database, and what the global
   site integrates or certifies. The builders replay a plan as a schedule;
   the workload engine's memo reads the same plans. *)

type local_phase = {
  db : string;
  site : int;
  touched : (string * int) list;
  result : Local_result.t;
  built : Checks.built;
  probe_units : int option;
  eval_units : int;
  dispatch_units : int;
  read_bytes : int;
  ship_bytes : int;
}

type check_batch = {
  origin : string;
  target : string;
  requests : Checks.request list;
  served : Checks.served;
}

type localized_plan = {
  phases : local_phase list;
  batches : check_batch list;
  results : Local_result.t list;
  local_verdicts : Checks.verdict list;
}

let no_checks =
  {
    Checks.requests = [];
    local_verdicts = [];
    filtered = 0;
    incapable = 0;
    root_level = 0;
    goid_lookups = 0;
    work = Meter.zero;
  }

let check_batches requests =
  let batches = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (r : Checks.request) ->
      let key = (r.Checks.origin_db, r.Checks.target_db) in
      match Hashtbl.find_opt batches key with
      | Some l -> l := r :: !l
      | None ->
        Hashtbl.add batches key (ref [ r ]);
        order := key :: !order)
    requests;
  List.rev_map (fun key -> (key, List.rev !(Hashtbl.find batches key))) !order

let plan_localized ?local ?signatures ~tracer c ~parallel ~checks fed analysis =
  let local =
    match local with
    | Some f -> f
    | None -> fun db -> Local_eval.scan ~tracer fed analysis ~db
  in
  let gs = Federation.global_schema fed in
  let involved = Involved.compute (Global_schema.schema gs) analysis in
  let n_targets = List.length analysis.Analysis.targets in
  let phases =
    List.map
      (fun (plan : Localize.db_plan) ->
        let db = plan.Localize.db in
        let scan = local db in
        let result = Local_eval.result ~tracer scan in
        let touched = Local_eval.touched scan in
        let probe =
          if parallel then Some (Local_eval.probe ~tracer scan) else None
        in
        let built =
          if not checks then no_checks
          else
            (* PL/PLS check the probe's missing items, BL/BLS the unsolved
               items of the maybe rows. *)
            let items =
              match probe with
              | Some p -> p.Local_eval.items
              | None ->
                List.concat_map
                  (fun (row : Local_result.row) -> row.Local_result.unsolved)
                  result.Local_result.rows
            in
            Checks.build ?signatures ~tracer fed analysis ~db
              ~root_class:plan.Localize.local_class ~items
        in
        {
          db;
          site = Federation.site_of fed db;
          touched;
          result;
          built;
          probe_units =
            Option.map (fun p -> units_of_work p.Local_eval.work) probe;
          (* local GOid lookups for row tagging happen during evaluation *)
          eval_units =
            units_of_work result.Local_result.work
            + List.length result.Local_result.rows;
          dispatch_units =
            built.Checks.goid_lookups + units_of_work built.Checks.work;
          read_bytes = Wire.localized_read_bytes c involved gs ~db_name:db ~touched;
          ship_bytes =
            Wire.results_bytes c ~n_targets result
            + (List.length built.Checks.local_verdicts * Wire.verdict_bytes c);
        })
      (Localize.plan fed analysis)
  in
  {
    phases;
    batches =
      List.map
        (fun ((origin, target), requests) ->
          {
            origin;
            target;
            requests;
            served = Checks.serve ~tracer fed ~db:target requests;
          })
        (check_batches
           (List.concat_map (fun ph -> ph.built.Checks.requests) phases));
    results = List.map (fun ph -> ph.result) phases;
    local_verdicts = List.concat_map (fun ph -> ph.built.Checks.local_verdicts) phases;
  }

let full_verdicts p =
  p.local_verdicts @ List.concat_map (fun b -> b.served.Checks.verdicts) p.batches

type ca_extent = { ca_db : string; ca_site : int; extent_bytes : int }

type ca_plan = {
  outcome : Ca.outcome;
  extents : ca_extent list;
  integrate_units : int;
  global_eval_units : int;
}

let plan_ca ?(multi_valued = false) ~tracer c fed analysis =
  let gs = Federation.global_schema fed in
  let involved = Involved.compute (Global_schema.schema gs) analysis in
  let outcome = Ca.run ~multi_valued ~tracer fed analysis in
  let m = outcome.Ca.materialize_stats in
  {
    outcome;
    extents =
      List.map
        (fun (db_name, db) ->
          {
            ca_db = db_name;
            ca_site = Federation.site_of fed db_name;
            extent_bytes = Wire.projected_extent_bytes c involved gs ~db_name ~db;
          })
        (Federation.databases fed);
    integrate_units =
      m.Materialize.source_objects + m.Materialize.fields_merged
      + outcome.Ca.goid_lookups;
    global_eval_units = units_of_work outcome.Ca.eval_work;
  }

(* ------------------------------------------------------------------ *)
(* CA — phase order O (ship everything) -> I (integrate) -> P (evaluate).
   CF ends the same way. Every shipment is critical: the answer is computed
   over host data, and if any shipment was abandoned the run degrades to a
   partial answer with every row demoted. *)

let centralized_tail e acc c fx ~gsite (ca : ca_plan) ~xfers ~eval_units
    ?(eliminated = 0) ?(conflicts = 0) () =
  let outcome = ca.outcome in
  bump_goid acc ~phase:"I" outcome.Ca.goid_lookups;
  let integrate =
    cpu_task e acc c ~site:gsite ~phase:"I" ~label:"integrate"
      ~units:ca.integrate_units ~deps:xfers ()
  in
  let eval =
    cpu_task e acc c ~site:gsite ~phase:"P" ~label:"global-eval"
      ~units:eval_units ~deps:[ integrate ] ()
  in
  ignore
    (Engine.fence e ~deps:[ eval ] ~attrs:(fence_attrs acc) ~label:"answer" ());
  fun () ->
    let ref_answer = outcome.Ca.answer in
    let final =
      if fx.f_partial then
        Answer.demote ref_answer ~goids:(Answer.goids ref_answer Answer.Certain)
      else ref_answer
    in
    {
      f_answer = final;
      f_check_requests = 0;
      f_checks_filtered = 0;
      f_promoted = 0;
      f_eliminated = eliminated;
      f_conflicts = conflicts;
      f_availability = availability_of fx ~ref_answer ~final_answer:final ();
    }

let build_ca e ~acc ~tracer ~fx opts fed analysis =
  let c = opts.cost in
  let ca = plan_ca ~multi_valued:opts.multi_valued ~tracer c fed analysis in
  let gsite = Federation.global_site fed in
  let xfers =
    List.map
      (fun x ->
        let read =
          disk_task e acc c ~site:x.ca_site ~phase:"O" ~db:x.ca_db
            ~label:"read-extents" ~bytes:x.extent_bytes ()
        in
        retrying_transfer e acc c fx ~critical:true ~src:x.ca_site ~dst:gsite
          ~phase:"O" ~db:x.ca_db ~label:"ship-objects" ~bytes:x.extent_bytes
          ~deps:[ read ] ())
      ca.extents
  in
  centralized_tail e acc c fx ~gsite ca ~xfers ~eval_units:ca.global_eval_units ()

(* ------------------------------------------------------------------ *)
(* CF — semijoin-filtered centralized (extension, in the tradition of the
   paper's reference [20]): round 1, every root-hosting database evaluates
   its local predicates and ships only the surviving GOids; the global site
   intersects the lists (an entity absent from a database that holds one of
   its isomers was eliminated there) and broadcasts the candidate set; round
   2, the databases ship the candidates' root projections plus the branch
   extents, and the global site integrates and evaluates as CA does. The
   answer equals CA's on consistent federations: local elimination only
   drops definitely-false entities. Every transfer is critical: a lost GOid
   list or candidate broadcast is as fatal as a lost extent.

   Phase attribution: the round-1 local filter is predicate evaluation
   (phase P); everything that acquires or ships objects — GOid exchange,
   candidate broadcast, round-2 reads and ships — is phase O; integration
   is phase I; the final global evaluation is phase P again. *)

let build_cf e ~acc ~tracer ~fx opts fed analysis =
  let c = opts.cost in
  let gs = Federation.global_schema fed in
  let schema = Global_schema.schema gs in
  let involved = Involved.compute schema analysis in
  let gsite = Federation.global_site fed in
  let root = analysis.Analysis.range_class in
  (* Round-1 computation: local filters (the LO machinery) determine the
     candidate set. *)
  let lo_plan =
    plan_localized ~tracer c ~parallel:false ~checks:false fed analysis
  in
  let lo =
    Certify.run ~multi_valued:opts.multi_valued ~tracer fed analysis
      ~results:lo_plan.results ~verdicts:[]
  in
  let candidates = Answer.goids lo.Certify.answer Answer.Certain in
  let candidates =
    Oid.Goid.Set.union candidates (Answer.goids lo.Certify.answer Answer.Maybe)
  in
  let n_candidates = Oid.Goid.Set.cardinal candidates in
  (* The final answer is CA's, computed over the integrated view. *)
  let ca = plan_ca ~multi_valued:opts.multi_valued ~tracer c fed analysis in
  (* ---- Round 1 tasks. ---- *)
  let width_root db_name =
    Involved.local_projection_width involved gs ~db:db_name ~gcls:root
  in
  let round1 =
    List.map
      (fun ph ->
        let read =
          disk_task e acc c ~site:ph.site ~phase:"P" ~db:ph.db
            ~label:"read-extents" ~bytes:ph.read_bytes ()
        in
        let eval =
          cpu_task e acc c ~site:ph.site ~phase:"P" ~db:ph.db
            ~label:"local-filter" ~units:ph.eval_units ~deps:[ read ] ()
        in
        let ship =
          retrying_transfer e acc c fx ~critical:true ~src:ph.site ~dst:gsite
            ~phase:"O" ~db:ph.db ~label:"ship-goids"
            ~bytes:(List.length ph.result.Local_result.rows * c.Cost.s_goid)
            ~deps:[ eval ] ()
        in
        (ph, ship))
      lo_plan.phases
  in
  bump_goid acc ~phase:"O" lo.Certify.goid_lookups;
  let intersect =
    cpu_task e acc c ~site:gsite ~phase:"O" ~label:"intersect"
      ~units:(units_of_work lo.Certify.work + lo.Certify.goid_lookups)
      ~deps:(List.map snd round1) ()
  in
  (* ---- Round 2: broadcast candidates, ship their data + branch extents. ---- *)
  let xfers =
    List.map
      (fun (db_name, db) ->
        let site = Federation.site_of fed db_name in
        let bcast =
          retrying_transfer e acc c fx ~critical:true ~src:gsite ~dst:site
            ~phase:"O" ~db:db_name ~label:"ship-candidates"
            ~bytes:(n_candidates * c.Cost.s_goid) ~deps:[ intersect ] ()
        in
        (* Candidate root objects this database holds, and the objects
           round 1 touched there. Round 1 ran in exactly the databases with
           a root constituent. *)
        let mine, touched =
          match List.find_opt (fun (ph, _) -> String.equal ph.db db_name) round1 with
          | Some (ph, _) ->
            ( List.length
                (List.filter
                   (fun (row : Local_result.row) ->
                     Oid.Goid.Set.mem row.Local_result.goid candidates)
                   ph.result.Local_result.rows),
              ph.touched )
          | None -> (0, [])
        in
        let root_bytes = mine * (c.Cost.s_loid + (width_root db_name * c.Cost.s_a)) in
        (* Branch objects are also filtered: a database only ships the
           branch objects its candidate roots reach (each candidate follows
           at most one reference per chain class, so the touched count
           capped by the candidate count bounds it). Databases without a
           root constituent ship their touched branch objects in full. *)
        let branch_bytes =
          List.fold_left
            (fun bytes gcls ->
              if String.equal gcls root then bytes
              else
                match Global_schema.constituent_of gs ~gcls ~db:db_name with
                | None -> bytes
                | Some cls ->
                  let width =
                    Involved.local_projection_width involved gs ~db:db_name ~gcls
                  in
                  let count =
                    match List.assoc_opt gcls touched with
                    | Some t -> min t (max mine 1)
                    | None -> Database.extent_size db cls
                  in
                  bytes + (count * (c.Cost.s_loid + (width * c.Cost.s_a))))
            0 (Involved.classes involved)
        in
        let bytes = root_bytes + branch_bytes in
        let read =
          disk_task e acc c ~site ~phase:"O" ~db:db_name
            ~label:"read-candidates" ~bytes ~deps:[ bcast ] ()
        in
        retrying_transfer e acc c fx ~critical:true ~src:site ~dst:gsite
          ~phase:"O" ~db:db_name ~label:"ship-objects" ~bytes ~deps:[ read ] ())
      (Federation.databases fed)
  in
  (* Integration over branch extents plus only the candidate roots; global
     evaluation over the candidates (CA's eval work scaled accordingly). *)
  let root_entities =
    max 1
      (List.length (Goid_table.goids_of_class (Federation.goids fed) ~gcls:root))
  in
  centralized_tail e acc c fx ~gsite ca ~xfers
    ~eval_units:(ca.global_eval_units * n_candidates / root_entities)
    ~eliminated:lo.Certify.eliminated ~conflicts:lo.Certify.conflicts ()

(* ------------------------------------------------------------------ *)
(* Degradation. A row that a verdict which never reached the global site
   would have certified or eliminated is still possible, so it stays an
   uncertified maybe: certain(faulty) stays inside certain(fault-free). *)

let entities_referencing results keys =
  if keys = [] then Oid.Goid.Set.empty
  else
    let keys = Hashtbl.of_seq (Seq.map (fun k -> (k, ())) (List.to_seq keys)) in
    List.fold_left
      (fun acc (res : Local_result.t) ->
        List.fold_left
          (fun acc (row : Local_result.row) ->
            if
              List.exists
                (fun (u : Local_result.unsolved) ->
                  Hashtbl.mem keys
                    ( row.Local_result.db,
                      Dbobject.loid u.Local_result.item,
                      u.Local_result.atom ))
                row.Local_result.unsolved
            then Oid.Goid.Set.add row.Local_result.goid acc
            else acc)
          acc res.Local_result.rows)
      Oid.Goid.Set.empty results

(* Certain although the reference is not (a lost eliminating verdict), or
   kept as maybe although the reference eliminated it. *)
let suspects ~reference answer =
  let refc = Answer.goids reference Answer.Certain in
  let refm = Answer.goids reference Answer.Maybe in
  Oid.Goid.Set.union
    (Oid.Goid.Set.diff (Answer.goids answer Answer.Certain) refc)
    (Oid.Goid.Set.diff (Answer.goids answer Answer.Maybe)
       (Oid.Goid.Set.union refc refm))

let key_of (r : Checks.request) = (r.Checks.origin_db, r.Checks.item, r.Checks.atom)

let degrade ~results ~reference ~lost answer =
  Answer.demote answer
    ~goids:
      (Oid.Goid.Set.union (suspects ~reference answer)
         (entities_referencing results (List.map key_of lost)))

(* ------------------------------------------------------------------ *)
(* Localized strategies *)

(* Per-check-key recovery state: one entry per (origin_db, item, atom)
   check key, shared by every batch — primary, failover or hedge — that
   carries the key. *)
type key_state = {
  mutable inflight : string list;  (* target dbs with an in-flight batch *)
  mutable answered : bool;  (* some batch delivered this key's verdict *)
  mutable k_failed : bool;  (* some batch carrying it was abandoned *)
  mutable budget : int;  (* remaining failover/hedge dispatches *)
  mutable chain : string list;  (* recovery hops taken, newest first *)
}

(* Localized phase attribution (paper, Figure 8): local evaluation is phase
   P; probing, dispatching, shipping and serving assistant checks are phase
   O; shipping local results and certifying at the global site are phase I.

   The local phases and check serving are computed host-side, but
   certification only sees the verdicts whose round trip actually survived:
   requests out and verdicts back use the bounded retry policy, result
   shipments are critical. With dynamic legs, which batches survive depends
   on simulated timing, so certification is built by [answer_after] once
   every chain has settled.

   With [options.recovery.failover] set, abandonment is no longer terminal:
   see the recovery block below. *)
let build_localized e ~acc ~tracer ~fx opts ~parallel ?(checks = true)
    ~signatures fed analysis =
  let c = opts.cost in
  let gs = Federation.global_schema fed in
  let involved = Involved.compute (Global_schema.schema gs) analysis in
  let signatures = if signatures then Some (Sig_catalog.build fed) else None in
  let p =
    plan_localized ?signatures ~tracer c ~parallel ~checks fed analysis
  in
  let phases = p.phases and batches = p.batches in
  let certify verdicts =
    let cf =
      Certify.run ~multi_valued:opts.multi_valued ~tracer fed analysis
        ~results:p.results ~verdicts
    in
    let deep =
      if opts.deep_certify then
        Some
          (Deep.resolve ~multi_valued:opts.multi_valued ~tracer fed analysis
             cf.Certify.answer)
      else None
    in
    (cf, deep)
  in
  let answer_of (cf, deep) =
    match deep with Some d -> d.Deep.answer | None -> cf.Certify.answer
  in
  (* What full delivery certifies: the reference the availability report
     and the degradation invariants are stated against. Only forced when
     some verdict was lost; otherwise the delivered certification is it. *)
  let reference = lazy (certify (full_verdicts p)) in
  (* ---- Replay onto the simulator. ---- *)
  let gsite = Federation.global_site fed in
  let dispatch_tasks : (string, Engine.handle) Hashtbl.t = Hashtbl.create 8 in
  let settle_deps = ref [] in
  List.iter
    (fun ph ->
      let db_name = ph.db and site = ph.site in
      let read =
        disk_task e acc c ~site ~phase:"P" ~db:db_name ~label:"read-extents"
          ~bytes:ph.read_bytes ()
      in
      bump_goid acc ~phase:"O" ph.built.Checks.goid_lookups;
      let dispatch =
        match ph.probe_units with
        | Some probe_units ->
          (* PL: probe + dispatch before evaluation. *)
          let probe =
            cpu_task e acc c ~site ~phase:"O" ~db:db_name ~label:"probe"
              ~units:probe_units ~deps:[ read ] ()
          in
          let dispatch =
            cpu_task e acc c ~site ~phase:"O" ~db:db_name
              ~label:"dispatch-checks" ~units:ph.dispatch_units ~deps:[ probe ] ()
          in
          let eval =
            cpu_task e acc c ~site ~phase:"P" ~db:db_name ~label:"local-eval"
              ~units:ph.eval_units ~deps:[ dispatch ] ()
          in
          Hashtbl.replace dispatch_tasks db_name dispatch;
          eval
        | None ->
          (* BL: evaluate, then dispatch. *)
          let eval =
            cpu_task e acc c ~site ~phase:"P" ~db:db_name ~label:"local-eval"
              ~units:ph.eval_units ~deps:[ read ] ()
          in
          let dispatch =
            cpu_task e acc c ~site ~phase:"O" ~db:db_name
              ~label:"dispatch-checks" ~units:ph.dispatch_units ~deps:[ eval ] ()
          in
          Hashtbl.replace dispatch_tasks db_name dispatch;
          dispatch
      in
      let settled =
        retrying_transfer e acc c fx ~critical:true ~src:site ~dst:gsite
          ~phase:"I" ~db:db_name ~label:"ship-results" ~bytes:ph.ship_bytes
          ~deps:[ dispatch ] ()
      in
      settle_deps := settled :: !settle_deps)
    phases;
  (* Check round trips. A batch abandoned at either leg loses its verdicts;
     a delivered request batch is served at the target (reads and evaluation
     are unaffected by link faults) and its verdicts travel back under the
     same bounded policy.

     With a recovery policy ([options.recovery.failover]) abandonment stops
     being the end of the story. Isomeric objects sharing a GOid are natural
     replicas, so the per-target requests built above double as a routing
     table keyed by (origin, item, atom): when the last in-flight batch
     carrying a key fails unanswered, the dispatcher re-issues the key's
     check to the next live candidate site — rotating past the one that just
     failed, skipping destinations whose circuit breaker is open or that are
     down for good — and charges the simulated clock for the extra round
     trip ([recovery_transfer]: latency, inflation and drop draws like any
     transfer, but off the FIFO resources, so the primary schedule stays
     bit-identical to the retry-only run's). Primary request legs feed the
     breaker's per-destination failure counts; only recovery request legs
     are gated by it (verdict legs terminate at the global site, which has
     no alternative route, so gating them could only lose answers — and
     gating primary legs could abandon a chain retry-only would have
     delivered). An optional hedged duplicate races each
     failover batch after [hedge_after]; the first answer wins, and duplicate
     identical verdicts are harmless to certification (qcheck-pinned). Only
     keys no live replica could answer demote their rows. *)
  let batch_delivered = Array.make (List.length batches) false in
  let recovery_on = opts.recovery.failover in
  let breaker_span name ~site ~at args =
    {
      Tracer.name;
      cat = "breaker";
      pid = site;
      tid = 2;
      ts_us = Time.to_us at;
      dur_us = 0.0;
      args = ("strategy", acc.sname) :: ("site", string_of_int site) :: args;
    }
  in
  let breaker =
    if not recovery_on then None
    else
      Some
        (Recovery.Breaker.create
           ~on_event:(fun ev ->
             Tracer.addf tracer (fun () ->
                 match ev with
                 | Recovery.Breaker.Opened { site; at; probe_at } ->
                   breaker_span "breaker.open" ~site ~at
                     [
                       ( "probe_at",
                         match probe_at with
                         | None -> "never"
                         | Some p -> Printf.sprintf "%gus" (Time.to_us p) );
                     ]
                 | Recovery.Breaker.Probing { site; at } ->
                   breaker_span "breaker.probe" ~site ~at []))
           ~threshold:opts.recovery.breaker_threshold ~sched:fx.sched ())
  in
  (* routing table: candidate requests per key, in fan-out order *)
  let route = Hashtbl.create 64 in
  if recovery_on then
    List.iter
      (fun b ->
        List.iter
          (fun (r : Checks.request) ->
            match Hashtbl.find_opt route (key_of r) with
            | Some l -> l := r :: !l
            | None -> Hashtbl.add route (key_of r) (ref [ r ]))
          b.requests)
      batches;
  let candidates key =
    match Hashtbl.find_opt route key with
    | Some l -> List.rev !l
    | None -> []
  in
  let kstates = Hashtbl.create 64 in
  let korder = ref [] in
  let kstate key =
    match Hashtbl.find_opt kstates key with
    | Some ks -> ks
    | None ->
      let ks =
        {
          inflight = [];
          answered = false;
          k_failed = false;
          budget = List.length (candidates key);
          chain = [];
        }
      in
      Hashtbl.replace kstates key ks;
      korder := key :: !korder;
      ks
  in
  let remove_inflight l tdb =
    List.filter (fun t -> not (String.equal t tdb)) l
  in
  (* A batch to [tdb] delivered its verdicts: its keys are answered. *)
  let answered ~tdb reqs =
    List.iter
      (fun (r : Checks.request) ->
        let ks = kstate (key_of r) in
        ks.inflight <- remove_inflight ks.inflight tdb;
        ks.answered <- true)
      reqs
  in
  let breaker_live site ~at =
    match breaker with
    | None -> true
    | Some b -> Recovery.Breaker.live b ~site ~at
  in
  (* the next candidate for [key]: routing-table order rotated past the
     target that just failed, skipping targets already in flight for the
     key, open breakers, and sites that never come back *)
  let next_candidate key ~rotate_past ~at =
    let ks = kstate key in
    let rec split acc = function
      | [] -> (List.rev acc, [])
      | (r : Checks.request) :: tl
        when String.equal r.Checks.target_db rotate_past ->
        (List.rev (r :: acc), tl)
      | r :: tl -> split (r :: acc) tl
    in
    let upto, after = split [] (candidates key) in
    List.find_opt
      (fun (r : Checks.request) ->
        let tsite = Federation.site_of fed r.Checks.target_db in
        (not (List.mem r.Checks.target_db ks.inflight))
        && breaker_live tsite ~at
        && not (Fault.permanently_down fx.sched ~site:tsite ~at))
      (after @ upto)
  in
  let extra_verdicts : Checks.verdict list list ref = ref [] in
  let fo_seq = ref 0 in
  (* Serving a recovery batch at the replica site is charged as latency too
     (see [recovery_transfer]): same disk/CPU durations and counters as the
     primary serve path, scaled by the site's speed factor, but off the
     site's FIFO resources so primary serve tasks never queue behind
     recovery work. *)
  let speed_factor site =
    match List.assoc_opt site opts.site_speeds with Some f -> f | None -> 1.0
  in
  let recovery_serve ~site ~db ~label ~disk_bytes ~units ?(deps = []) () =
    Metrics.inc (ctr acc ~phase:"O" "msdq_disk_bytes_total") disk_bytes;
    Metrics.inc (ctr acc ~phase:"O" "msdq_work_units_total") units;
    let duration =
      Time.us
        ((Time.to_us (Cost.disk c ~bytes:disk_bytes)
         +. Time.to_us (Cost.cpu c ~units))
        /. speed_factor site)
    in
    Engine.delay e ~label
      ~attrs:(task_attrs acc ~phase:"O" ~db ())
      ~duration ~deps ()
  in
  (* Dispatch [reqs] (all [origin] -> [tdb]) as a recovery batch; [settle]
     runs exactly once, when the batch and everything it spawned (deeper
     failovers, hedges) has settled. *)
  let rec recovery_dispatch ~origin ~tdb ~reqs ~hedge ~settle =
    incr fo_seq;
    let seq = !fo_seq in
    let tag = if hedge then "hedge" else "failover" in
    if hedge then fx.f_hedges <- fx.f_hedges + 1
    else fx.f_failovers <- fx.f_failovers + 1;
    let osite = Federation.site_of fed origin in
    let tsite = Federation.site_of fed tdb in
    let s = Checks.serve ~tracer fed ~db:tdb reqs in
    let outstanding = ref 1 in
    let done_one () =
      decr outstanding;
      if !outstanding = 0 then settle ()
    in
    List.iter
      (fun (r : Checks.request) ->
        let ks = kstate (key_of r) in
        ks.inflight <- tdb :: ks.inflight;
        ks.budget <- ks.budget - 1;
        ks.chain <- Printf.sprintf "%s to %s" tag tdb :: ks.chain)
      reqs;
    (match opts.recovery.hedge_after with
     | Some after when not hedge ->
       incr outstanding;
       (* Straggler-triggered hedging: under adaptive timeouts the hedge
          delay is the target's telemetry-derived timeout, not the
          hand-picked constant — a destination observed to be slow is
          hedged later, a fast one sooner. *)
       let after =
         match opts.retry.adaptive with
         | Some _ -> fx.f_timeout_of tsite
         | None -> after
       in
       ignore
         (Engine.delay e
            ~label:(Printf.sprintf "hedge-timer#%d" seq)
            ~duration:after
            ~on_complete:(fun () ->
              let unanswered =
                List.filter
                  (fun (r : Checks.request) ->
                    not (kstate (key_of r)).answered)
                  reqs
              in
              spawn_recovery ~origin ~reqs:unanswered ~rotate_past:tdb
                ~hedge:true ~settle:done_one)
            ())
     | _ -> ());
    let abandon () = abandon_batch ~origin ~tdb ~reqs ~settle:done_one in
    ignore
      (recovery_transfer e acc c fx ?breaker ~src:osite
         ~dst:tsite ~phase:"O" ~db:tdb
         ~label:(Printf.sprintf "ship-requests~%s%d" tag seq)
         ~bytes:(Wire.requests_bytes c reqs)
         ~k:(fun delivered ->
           if not delivered then abandon ()
           else begin
             let serve =
               recovery_serve ~site:tsite ~db:tdb
                 ~label:(Printf.sprintf "check-serve~%s%d" tag seq)
                 ~disk_bytes:(Wire.check_read_bytes c reqs)
                 ~units:(units_of_work s.Checks.work) ()
             in
             ignore
               (recovery_transfer e acc c fx ~src:tsite
                  ~dst:gsite ~phase:"O" ~db:tdb
                  ~label:(Printf.sprintf "ship-verdicts~%s%d" tag seq)
                  ~bytes:(List.length s.Checks.verdicts * Wire.verdict_bytes c)
                  ~deps:[ serve ]
                  ~k:(fun delivered ->
                    if delivered then begin
                      answered ~tdb reqs;
                      extra_verdicts := s.Checks.verdicts :: !extra_verdicts;
                      done_one ()
                    end
                    else abandon ())
                  ())
           end)
         ())
  (* A batch of [reqs] to [tdb] (primary or recovery) was abandoned at
     either leg. Without failover that is the end: [settle] runs at once.
     With it, the keys no other batch still carries are re-routed and
     [settle] runs once those have settled. *)
  and abandon_batch ~origin ~tdb ~reqs ~settle =
    fx.f_abandoned <- fx.f_abandoned + List.length reqs;
    if not recovery_on then settle ()
    else begin
      List.iter
        (fun (r : Checks.request) ->
          let ks = kstate (key_of r) in
          ks.inflight <- remove_inflight ks.inflight tdb;
          ks.k_failed <- true)
        reqs;
      let ready =
        List.filter
          (fun (r : Checks.request) ->
            let ks = kstate (key_of r) in
            (not ks.answered) && ks.inflight = [])
          reqs
      in
      spawn_recovery ~origin ~reqs:ready ~rotate_past:tdb ~hedge:false ~settle
    end
  (* Re-route [reqs] (unanswered, no batch in flight, budget left) to their
     next candidates, grouped per target; [settle] runs once every spawned
     batch has settled — immediately if nothing can be spawned. *)
  and spawn_recovery ~origin ~reqs ~rotate_past ~hedge ~settle =
    let now = Engine.now e in
    let picked =
      List.filter_map
        (fun (r : Checks.request) ->
          let key = key_of r in
          if (kstate key).budget <= 0 then None
          else next_candidate key ~rotate_past ~at:now)
        reqs
    in
    match check_batches picked with
    | [] -> settle ()
    | groups ->
      let n = ref (List.length groups) in
      let settle_one () =
        decr n;
        if !n = 0 then settle ()
      in
      List.iter
        (fun ((_, tdb), greqs) ->
          recovery_dispatch ~origin ~tdb ~reqs:greqs ~hedge ~settle:settle_one)
        groups
  in
  List.iteri
    (fun bi { origin; target; requests = reqs; served = s } ->
      let osite = Federation.site_of fed origin in
      let tsite = Federation.site_of fed target in
      let dispatch = Hashtbl.find dispatch_tasks origin in
      let batch_settled =
        join e fx ~label:(Printf.sprintf "checks:%s->%s" origin target)
      in
      if recovery_on then
        List.iter
          (fun (r : Checks.request) ->
            let ks = kstate (key_of r) in
            ks.inflight <- target :: ks.inflight)
          reqs;
      let abandon () =
        abandon_batch ~origin ~tdb:target ~reqs ~settle:(fun () ->
            settle e batch_settled [])
      in
      ignore
        (retrying_transfer e acc c fx ?breaker ~critical:false ~src:osite
           ~dst:tsite ~phase:"O" ~db:target ~label:"ship-requests"
           ~bytes:(Wire.requests_bytes c reqs) ~deps:[ dispatch ]
           ~k:(fun delivered deps ->
             if not delivered then abandon ()
             else begin
               let read =
                 disk_task e acc c ~site:tsite ~phase:"O" ~db:target
                   ~label:"check-read" ~bytes:(Wire.check_read_bytes c reqs)
                   ~deps ()
               in
               let eval =
                 cpu_task e acc c ~site:tsite ~phase:"O" ~db:target
                   ~label:"check-eval" ~units:(units_of_work s.Checks.work)
                   ~deps:[ read ] ()
               in
               ignore
                 (retrying_transfer e acc c fx ~critical:false ~src:tsite
                    ~dst:gsite ~phase:"O" ~db:target ~label:"ship-verdicts"
                    ~bytes:(List.length s.Checks.verdicts * Wire.verdict_bytes c)
                    ~deps:[ eval ]
                    ~k:(fun delivered deps ->
                      if delivered then begin
                        batch_delivered.(bi) <- true;
                        if recovery_on then answered ~tdb:target reqs;
                        settle e batch_settled deps
                      end
                      else abandon ())
                    ())
             end)
           ());
      settle_deps := List.rev_append (joined batch_settled) !settle_deps)
    batches;
  (* Certification over the delivered verdicts, then deep resolution (if
     enabled); [certified] also records whether nothing was lost, in which
     case the delivered verdicts are exactly the reference's, in order. *)
  let certified = ref None in
  answer_after e acc fx ~deps:(List.rev !settle_deps) (fun deps ->
      let complete =
        Array.for_all Fun.id batch_delivered
        && !extra_verdicts = [] && not fx.f_partial
      in
      let delivered =
        p.local_verdicts
        @ List.concat
            (List.mapi
               (fun bi b ->
                 if batch_delivered.(bi) then b.served.Checks.verdicts else [])
               batches)
        (* verdicts recovered by failover/hedge batches; duplicates of
           delivered primaries cannot arise (recovery only targets
           unanswered keys), and a hedge racing its failover twin yields
           independent per-target verdicts, exactly as full delivery
           would have *)
        @ List.concat (List.rev !extra_verdicts)
      in
      let ((cf, deep) as outcome) = certify delivered in
      certified := Some (outcome, complete);
      bump_goid acc ~phase:"I" cf.Certify.goid_lookups;
      let certify_task =
        cpu_task e acc c ~site:gsite ~phase:"I" ~label:"certify"
          ~units:(units_of_work cf.Certify.work + cf.Certify.goid_lookups)
          ~deps ()
      in
      match deep with
      | None -> certify_task
      | Some deep ->
        (* Residual resolution: each database ships the projected data of
           the residual entities' involved classes, then the global site
           resolves. *)
        let per_entity_bytes =
          List.fold_left
            (fun bytes gcls ->
              bytes + c.Cost.s_loid
              + (List.length (Involved.attrs_of_class involved gcls) * c.Cost.s_a))
            0 (Involved.classes involved)
        in
        let deep_deps =
          List.map
            (fun (db_name, _) ->
              let site = Federation.site_of fed db_name in
              let bytes = deep.Deep.residual * per_entity_bytes in
              let read =
                disk_task e acc c ~site ~phase:"I" ~db:db_name
                  ~label:"deep-read" ~bytes ~deps:[ certify_task ] ()
              in
              retrying_transfer e acc c fx ~critical:true ~src:site ~dst:gsite
                ~phase:"I" ~db:db_name ~label:"deep-ship" ~bytes
                ~deps:[ read ] ())
            (Federation.databases fed)
        in
        cpu_task e acc c ~site:gsite ~phase:"I" ~label:"deep-certify"
          ~units:(units_of_work deep.Deep.work) ~deps:deep_deps ());
  let check_requests =
    List.fold_left (fun n ph -> n + List.length ph.built.Checks.requests) 0 phases
  in
  let checks_filtered =
    List.fold_left (fun n ph -> n + ph.built.Checks.filtered) 0 phases
  in
  Metrics.inc
    (Metrics.counter acc.reg
       ~labels:[ ("strategy", acc.sname) ]
       "msdq_check_requests_total")
    check_requests;
  Metrics.inc
    (Metrics.counter acc.reg
       ~labels:[ ("strategy", acc.sname) ]
       "msdq_checks_filtered_total")
    checks_filtered;
  fun () ->
  let ((cf, _) as outcome), complete =
    match !certified with
    | Some c -> c
    | None -> (Lazy.force reference, true)
  in
  let pre = answer_of outcome in
  let ref_answer = if complete then pre else answer_of (Lazy.force reference) in
  let final, recovered_rows =
    if complete then (pre, Oid.Goid.Set.empty)
    else if fx.f_partial then
      ( Answer.demote pre
          ~goids:
            (Oid.Goid.Set.union
               (suspects ~reference:ref_answer pre)
               (Answer.goids pre Answer.Certain)),
        Oid.Goid.Set.empty )
    else if not recovery_on then
      let lost =
        List.concat
          (List.mapi
             (fun bi b -> if batch_delivered.(bi) then [] else b.requests)
             batches)
      in
      (degrade ~results:p.results ~reference:ref_answer ~lost pre, Oid.Goid.Set.empty)
    else begin
      (* With failover, a key only demotes its rows if it ended the
         run unanswered — no batch, primary or recovery, delivered a
         verdict for it. Rows that were touched by an abandonment but
         whose keys all got answered after all are the recovery win,
         reported as [recovered]. *)
      let rows_of keep =
        entities_referencing p.results
          (Hashtbl.fold (fun key ks l -> if keep ks then key :: l else l) kstates [])
      in
      let mark =
        Oid.Goid.Set.union
          (suspects ~reference:ref_answer pre)
          (rows_of (fun ks -> not ks.answered))
      in
      ( Answer.demote pre ~goids:mark,
        Oid.Goid.Set.diff (rows_of (fun ks -> ks.k_failed)) mark )
    end
  in
  fx.f_recovered <- Oid.Goid.Set.cardinal recovered_rows;
  let final =
    if not recovery_on then final
    else begin
      (* Failover-chain provenance for the rows that still demoted. *)
      let chain_of = Hashtbl.create 16 in
      List.iter
        (fun ((origin, item, _atom) as key) ->
          let ks = kstate key in
          if (not ks.answered) && not (Hashtbl.mem chain_of (origin, item))
          then begin
            let hops = List.rev ks.chain in
            let why =
              match hops with
              | [] -> "check dropped; no live replica to re-route to"
              | hops ->
                "check dropped; " ^ String.concat "; " hops
                ^ "; no live replica answered"
            in
            Hashtbl.add chain_of (origin, item) why
          end)
        (List.rev !korder);
      let reasons =
        List.concat_map
          (fun ph ->
            List.filter_map
              (fun (row : Local_result.row) ->
                if Oid.Goid.Set.mem row.Local_result.goid (Answer.degraded final)
                then
                  List.find_map
                    (fun (u : Local_result.unsolved) ->
                      Hashtbl.find_opt chain_of
                        (row.Local_result.db,
                         Dbobject.loid u.Local_result.item))
                    row.Local_result.unsolved
                  |> Option.map (fun why ->
                         (row.Local_result.goid, Answer.Fault why))
                else None)
              ph.result.Local_result.rows)
          phases
      in
      Answer.annotate_degraded final ~reasons
    end
  in
  let availability =
    availability_of fx ~recovered:fx.f_recovered ~ref_answer
      ~final_answer:final ()
  in
  (* Recovery counters, like the fault counters, only materialize on
     faulty runs. *)
  if recovery_on && availability.faults_active then begin
    let bc name v =
      Metrics.inc
        (Metrics.counter acc.reg ~labels:[ ("strategy", acc.sname) ] name)
        v
    in
    (match breaker with
     | Some b ->
       bc "msdq_breaker_opened_total" (Recovery.Breaker.opened_total b);
       bc "msdq_breaker_probes_total" (Recovery.Breaker.probes_total b);
       bc "msdq_gray_slow_trips_total" (Recovery.Breaker.slow_total b)
     | None -> ());
    bc "msdq_recovery_failovers_total" fx.f_failovers;
    bc "msdq_recovery_hedges_total" fx.f_hedges;
    bc "msdq_recovery_recovered_total" fx.f_recovered;
    bc "msdq_gray_slow_legs_total" fx.f_slow
  end;
  {
    f_answer = final;
    f_check_requests = check_requests;
    f_checks_filtered = checks_filtered;
    f_promoted = cf.Certify.promoted;
    f_eliminated = cf.Certify.eliminated;
    f_conflicts = cf.Certify.conflicts;
    f_availability = availability;
  }

(* ------------------------------------------------------------------ *)

let build e ~reg ~tracer options strategy fed analysis =
  let acc = { reg; sname = to_string strategy } in
  let fx = new_fault_ctx options in
  Tracer.with_span tracer ~cat:"build"
    ~args:[ ("strategy", acc.sname) ]
    ("build:" ^ acc.sname)
  @@ fun () ->
  let localized ~parallel ?checks ~signatures () =
    build_localized e ~acc ~tracer ~fx options ~parallel ?checks ~signatures
      fed analysis
  in
  match strategy with
  | Ca -> build_ca e ~acc ~tracer ~fx options fed analysis
  | Bl -> localized ~parallel:false ~signatures:false ()
  | Pl -> localized ~parallel:true ~signatures:false ()
  | Bls -> localized ~parallel:false ~signatures:true ()
  | Pls -> localized ~parallel:true ~signatures:true ()
  | Lo -> localized ~parallel:false ~checks:false ~signatures:false ()
  | Cf -> build_cf e ~acc ~tracer ~fx options fed analysis

let finalize_registry reg strategy ~total ~response =
  let labels = [ ("strategy", to_string strategy) ] in
  Metrics.set (Metrics.gauge reg ~labels "msdq_total_us") (Time.to_us total);
  Metrics.set (Metrics.gauge reg ~labels "msdq_response_us") (Time.to_us response)

(* Telemetry histograms: log-bucketed per-task latency distributions,
   recorded per (strategy, site, resource, phase) from the engine trace,
   each read from the entry's attributes ("-" when absent). Opt-in via
   [options.telemetry]: when off, nothing is registered, so registry dumps
   stay byte-identical to pre-telemetry ones (golden-pinned). *)
let record_latency_histograms reg entries =
  List.iter
    (fun (e : Trace.entry) ->
      match (e.Trace.site, e.Trace.kind) with
      | Some site, Some kind ->
        let attr k = Option.value ~default:"-" (List.assoc_opt k e.Trace.attrs) in
        let h =
          Metrics.histogram reg
            ~labels:
              [
                ("strategy", attr "strategy");
                ("site", string_of_int site);
                ("resource", Resource.kind_to_string kind);
                ("phase", attr "phase");
              ]
            "msdq_task_duration_us"
        in
        Metrics.observe h (Time.to_us (Time.sub e.Trace.finish e.Trace.start))
      | _ -> ())
    entries

let observe_query_latency reg ~sname latency =
  Metrics.observe
    (Metrics.histogram reg
       ~labels:[ ("strategy", sname) ]
       "msdq_query_latency_us")
    (Time.to_us latency)

let run ?(options = default_options) strategy fed analysis =
  Log.debug (fun m ->
      m "running %s over %d databases, query on %s" (to_string strategy)
        (List.length (Federation.databases fed))
        analysis.Analysis.range_class);
  validate_options options;
  let e = Engine.create ~trace:true () in
  apply_site_speeds e options.site_speeds;
  Fault.install options.fault e;
  let reg = Metrics.create () in
  let tracer = Tracer.create () in
  let finish = build e ~reg ~tracer options strategy fed analysis in
  Engine.run e;
  let f = finish () in
  let stats = Engine.stats e and trace = Engine.trace e in
  let total = Stats.total_busy stats in
  let response = Stats.makespan stats in
  finalize_registry reg strategy ~total ~response;
  if options.telemetry then begin
    record_latency_histograms reg (Trace.entries trace);
    observe_query_latency reg ~sname:(to_string strategy) response
  end;
  if f.f_availability.faults_active then begin
    (* Fault counters only materialize on faulty runs, so fault-free
       registry dumps stay byte-identical to the pre-fault-injection ones. *)
    let fc name v =
      Metrics.inc
        (Metrics.counter reg ~labels:[ ("strategy", to_string strategy) ] name)
        v
    in
    fc "msdq_fault_drops_total" f.f_availability.drops;
    fc "msdq_fault_retries_total" f.f_availability.retries;
    fc "msdq_fault_abandoned_checks_total" f.f_availability.checks_abandoned;
    fc "msdq_fault_demotions_total" f.f_availability.demoted
  end;
  let metrics =
    {
      strategy;
      total;
      response;
      bytes_shipped = Metrics.total reg "msdq_bytes_shipped_total";
      disk_bytes = Metrics.total reg "msdq_disk_bytes_total";
      messages = Metrics.total reg "msdq_messages_total";
      check_requests = f.f_check_requests;
      checks_filtered = f.f_checks_filtered;
      work_units = Metrics.total reg "msdq_work_units_total";
      goid_lookups = Metrics.total reg "msdq_goid_lookups_total";
      promoted = f.f_promoted;
      eliminated_at_global = f.f_eliminated;
      conflicts = f.f_conflicts;
      breakdown = Stats.by_label stats;
      trace;
      registry = reg;
      host_spans = Tracer.spans tracer;
      availability = f.f_availability;
    }
  in
  Log.info (fun m ->
      m "%s: %d certain, %d maybe; total %a, response %a, %d checks"
        (to_string strategy)
        (List.length (Answer.certain f.f_answer))
        (List.length (Answer.maybe f.f_answer))
        Time.pp metrics.total Time.pp metrics.response f.f_check_requests);
  (f.f_answer, metrics)

let phase_breakdown m =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (e : Trace.entry) ->
      match e.Trace.site with
      | None -> ()
      | Some _ -> (
        match List.assoc_opt "phase" e.Trace.attrs with
        | None -> ()
        | Some phase ->
          let busy, n =
            match Hashtbl.find_opt tbl phase with
            | Some v -> v
            | None -> (Time.zero, 0)
          in
          Hashtbl.replace tbl phase
            (Time.add busy (Time.sub e.Trace.finish e.Trace.start), n + 1)))
    (Trace.entries m.trace);
  List.map
    (fun phase ->
      match Hashtbl.find_opt tbl phase with
      | Some (busy, n) -> (phase, busy, n)
      | None -> (phase, Time.zero, 0))
    [ "O"; "P"; "I" ]

let run_query ?options strategy fed src =
  match Parser.parse_result src with
  | Error msg -> Error msg
  | Ok ast -> (
    let schema = Global_schema.schema (Federation.global_schema fed) in
    match Analysis.analyze schema ast with
    | exception Analysis.Error msg -> Error msg
    | analysis -> Ok (run ?options strategy fed analysis))

let pp_availability ppf a =
  (* Prints nothing for fault-free runs, so their plain-text output is
     byte-identical to the pre-fault-injection layout. *)
  if a.faults_active then
    Format.fprintf ppf
      "@,availability: sites [%s] faulty; %d drops, %d retries, %d checks \
       abandoned@,degradation: %d/%d certain demoted (%.2f), %d resurrected%s\
       @,reconciliation: %d certain(faulty) + %d demoted = %d \
       certain(fault-free); %d recovered by failover"
      (String.concat "," (List.map string_of_int a.failed_sites))
      a.drops a.retries a.checks_abandoned a.demoted a.certain_fault_free
      a.degradation_ratio a.resurrected
      (if a.partial then "; PARTIAL ANSWER" else "")
      (a.certain_fault_free - a.demoted)
      a.demoted a.certain_fault_free a.recovered

let pp_metrics ppf m =
  let phases = phase_breakdown m in
  let pp_phases ppf () =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " / ")
      (fun ppf (phase, busy, _) -> Format.fprintf ppf "%s %a" phase Time.pp busy)
      ppf phases
  in
  Format.fprintf ppf
    "@[<v>%s: total %a, response %a@,phases %a@,shipped %d bytes in %d \
     messages; disk %d bytes@,work %d units, %d goid lookups, %d checks (%d \
     filtered)@,promoted %d, eliminated at global %d%s%a@]"
    (to_string m.strategy) Time.pp m.total Time.pp m.response pp_phases ()
    m.bytes_shipped m.messages m.disk_bytes m.work_units m.goid_lookups
    m.check_requests m.checks_filtered m.promoted m.eliminated_at_global
    (if m.conflicts > 0 then Printf.sprintf ", %d CONFLICTS" m.conflicts else "")
    pp_availability m.availability
