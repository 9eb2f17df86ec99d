(** Multi-query workload engine: shared-work execution of a query stream.

    The paper evaluates each strategy on one query at a time; this engine
    admits a {e stream} of analyzed queries against one federation and
    executes them over the same simulated system, sharing work across
    queries through three mechanisms:

    {ul
    {- an {e extent cache} — one {!Lru} per site, holding the projected
       extents a query's localization (or CA's shipping) read, so a later
       query over the same root classes stops re-charging disk I/O;}
    {- a {e verdict cache} at the global site — assistant-check verdicts
       keyed by (target database, assistant LOid, relative predicate), so
       one query's certification round trip certifies the same maybe row in
       later queries. Cache-served certifications are marked on the answer
       ([Msdq_query.Answer.cached]);}
    {- {e cross-query check batching} — check requests destined for the
       same site within an admission [config.window] coalesce into
       one message, amortizing the 64-byte framing constant charged on
       every serve-path message across queries.}}

    Everything is charged to the simulated clock of one shared engine, so
    queries contend for the same FIFO resources exactly where real
    executions would.

    {2 Faults, and why caching never changes an answer}

    The engine composes with the fault schedule in
    [config.options.fault]. The fate of every check round trip is decided
    by {e timing-independent} draws — the schedule's pure per-transfer hash
    keyed by the query's arrival time — {e before} any cache is consulted:

    {ul
    {- a doomed round trip suppresses cache hits for its requests, so its
       rows demote to uncertified maybe results exactly as they would in a
       cold run — a cached verdict can never resurrect a row that fault
       demotion made uncertified. Which rows demote is
       {!Msdq_exec.Strategy.degrade}'s rule, the one a single query's
       retry-only run applies;}
    {- a surviving round trip may serve any of its verdicts from cache,
       which changes {e only} simulated time, never the verdict (a verdict
       is a pure function of the assistant object and the relative
       predicate).}}

    Answers are therefore structurally independent of cache capacity and
    admission window — the cache-soundness property the test suite checks
    over random workloads and random fault schedules. Site crashes
    invalidate: each cache entry is tagged with its site's {e generation}
    (the number of outage windows ended by the inserting query's arrival),
    and a later generation discards the entry — a crash wipes the site's
    cache RAM.

    {2 Overload control}

    Three optional knobs make the engine overload-robust, all charged to
    the same simulated clock:

    {ul
    {- {e deadline budgets} — [config.deadline] (or a per-job override)
       bounds each query's latency. A check round trip predicted to land
       past the budget is {e abandoned at admission}: its rows demote to
       uncertified maybes carrying an {!Msdq_query.Answer.Deadline} reason
       (elapsed vs budget), while everything already certain is returned
       as-is — an {e anytime} answer. Deadline fates, like loss fates, are
       drawn before any cache is consulted, so warm and cold runs demote
       identically;}
    {- {e bounded-queue admission} — [config.queue_limit] caps the depth
       of a virtual single-server FIFO over predicted service times.
       Over-capacity arrivals are shed per [config.shed_policy]: rejected
       outright ([Reject_newest]), admitted by evicting the oldest
       still-queued query ([Reject_oldest]), or admitted degraded to the
       cheapest predicted plan ([Degrade]). Shed queries never touch the
       engine and surface as {!shed_report}s;}
    {- {e backpressure} — queue depth plus a deadline-miss EWMA feed
       {!Msdq_opt.Optimizer.decide}'s [overload] score in {!run_auto}, so
       AUTO shifts toward cheaper plans as pressure rises.}}

    docs/SERVE.md lists the modelling simplifications: fates drawn at
    arrival, critical messages that are never lost, retry waits charged as
    latency, deadline fates from predicted delays and the virtual
    single-server queue. *)

open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec

type shed_policy =
  | Reject_newest  (** shed the over-capacity arrival itself *)
  | Reject_oldest
      (** evict the oldest still-queued query to admit the arrival (sheds
          the arrival when nothing is left queued) *)
  | Degrade
      (** admit everything, but force over-capacity arrivals onto the
          cheapest predicted plan (CA/BL/PL under the cost model) *)

val shed_policies : shed_policy list
(** All policies, in the order above. *)

val shed_policy_to_string : shed_policy -> string
(** ["reject-newest"], ["reject-oldest"], ["degrade"]. *)

val shed_policy_of_string : string -> (shed_policy, string) result
(** Inverse of {!shed_policy_to_string}; the error message lists the
    accepted set. *)

type config = {
  options : Strategy.options;
      (** cost constants, site speeds, fault schedule and retry policy —
          the same record the single-query strategies take.
          [options.deep_certify] and [options.recovery.failover] are
          unsupported here and rejected: check round trips are
          retry-only. *)
  cache_bytes : int;
      (** capacity of {e each} site's extent cache and of the global
          verdict cache, in bytes; [0] disables caching entirely (every
          run is a cold run) *)
  window : Time.t;
      (** check-batching admission window: requests reaching the same
          target site within [window] of the first coalesce into one
          message; [Time.zero] disables cross-query batching *)
  deadline : Time.t option;
      (** per-query latency budget; checks predicted to land past it are
          abandoned at admission and their rows demoted with a
          [Answer.Deadline] reason. [None] (the default) disables
          deadlines. Must be positive and finite when set. *)
  queue_limit : int option;
      (** admission-queue depth bound; arrivals finding [queue_limit]
          queries still queued are shed per [shed_policy]. [None] (the
          default) leaves the queue unbounded. Must be [>= 1] when set. *)
  shed_policy : shed_policy;
      (** what to do with an over-capacity arrival; only consulted when
          [queue_limit] is set. Default [Reject_newest]. *)
}

val default_config : config
(** [Strategy.default_options], 4 MiB caches, no batching window, no
    deadline, unbounded queue, [Reject_newest]. *)

type job = {
  strategy : Strategy.t;
  analysis : Analysis.t;
  arrival : Time.t;  (** admission instant on the shared simulated clock *)
  deadline : Time.t option;
      (** per-job deadline override; [None] inherits [config.deadline] *)
}

type query_report = {
  index : int;  (** position in the submitted job list *)
  strategy : Strategy.t;
  arrival : Time.t;
  completed : Time.t;  (** when the answer was assembled *)
  latency : Time.t;  (** [completed - arrival] *)
  answer : Answer.t;
      (** carries degraded provenance for fault demotions and cached
          provenance ([Answer.cached]) for cache-served certifications *)
  extent_hits : int;  (** extent-cache hits this query scored *)
  verdict_hits : int;  (** verdicts this query served from cache *)
  deadline_demoted : int;
      (** entities degraded only because of the deadline: degraded here but
          not in the same arrival without a deadline, whose lost check
          round trips alone degrade the rest. These carry an
          [Answer.Deadline] reason (elapsed vs budget), the rest an
          [Answer.Fault] one. *)
  registry : Msdq_obs.Metrics.t;
      (** the query's private registry: [msdq_disk_bytes_total],
          [msdq_bytes_shipped_total], [msdq_work_units_total], labelled by
          strategy and paper phase *)
}

type shed_report = {
  s_index : int;  (** position in the submitted job list *)
  s_strategy : Strategy.t;  (** what would have run *)
  s_arrival : Time.t;
  s_policy : shed_policy;  (** the policy that shed it *)
}
(** A query the admission queue refused: it never touched the engine, has
    no {!query_report}, and its absence is an explicit outcome rather than
    an unbounded wait. *)

type outcome = {
  reports : query_report list;
      (** admitted queries, in submission order *)
  shed : shed_report list;
      (** shed queries, in submission order; empty without [queue_limit] *)
  makespan : Time.t;  (** completion instant of the last query *)
  throughput : float;  (** queries per simulated second, [n / makespan] *)
  extent_cache : Lru.stats;  (** aggregated over all per-site caches *)
  verdict_cache : Lru.stats;
  messages : int;  (** serve-path messages actually sent *)
  coalesced_checks : int;
      (** check requests that rode a message also carrying another query's
          requests — what the admission window bought *)
  max_queue_depth : int;
      (** deepest the virtual admission queue got at any arrival instant;
          [0] when no overload knob is configured or queries never
          overlapped *)
  check_latency : (int * float * int) list;
      (** per destination site, sorted by site: [(site, mean_us, legs)] —
          the mean modeled latency of the delivered check legs sent to that
          site (link inflation and jitter included, retry waits excluded)
          and how many legs were observed. This is the run's gray-health
          signal: {!Msdq_exp.Run_report.record_serve_stats} records it into
          the telemetry store, from which [options.latency_of] feeds the
          next run's adaptive timeouts. Empty for purely centralized
          workloads (no check legs). *)
  registry : Msdq_obs.Metrics.t;
      (** the workload registry: [msdq_cache_hits_total] /
          [msdq_cache_misses_total] / [msdq_cache_evictions_total]
          (labelled [cache=extent|verdict]),
          [msdq_coalesced_checks_total], [msdq_messages_total] and the
          fault counters. With [options.telemetry] set it additionally
          holds the [msdq_task_duration_us] and [msdq_query_latency_us]
          latency histograms. *)
  trace : Trace.entry list;
      (** the engine's task trace, for Chrome export and critical-path
          analysis. Every serve-path task carries a
          [("trace", "q<index>")] attribute naming the owning query (a
          coalesced message shared by several queries carries
          [("trace", "batch")]), so per-query causal trees can be
          recovered from the shared engine's trace. Empty unless {!run}
          was called with [~trace:true] or [options.telemetry] is set. *)
}

val run :
  ?tracer:Msdq_obs.Tracer.t ->
  ?registry:Msdq_obs.Metrics.t ->
  ?trace:bool ->
  config ->
  Federation.t ->
  job list ->
  outcome
(** Executes the whole workload on one shared engine. Jobs must be listed
    in non-decreasing arrival order — cache admission follows list order —
    and may mix strategies ([Ca], [Bl], [Pl], [Bls], [Pls], [Lo]; [Cf] has
    no serve-path integration and is rejected). [~trace:true] enables the
    engine's task trace (also enabled implicitly by [options.telemetry]);
    it changes only the [trace] field of the outcome, never timing or
    answers. Raises [Invalid_argument] on invalid configuration (negative
    capacities, negative or non-finite window, [deep_certify], failover,
    unsorted arrivals, a [Cf] job, a non-positive or non-finite deadline, a
    [queue_limit < 1]) with a readable message, before any simulated work
    happens.

    With overload knobs set, the workload registry additionally carries
    [msdq_shed_total{policy}], [msdq_deadline_demotions_total{strategy}]
    and the [msdq_queue_depth] gauge (the outcome's [max_queue_depth]). *)

(** {2 AUTO: adaptive per-query strategy selection}

    {!run_auto} lets the cost-based optimizer ({!Msdq_opt.Optimizer}) pick
    each query's strategy at admission: model predictions from the
    federation's catalog statistics, blended with observed latencies from
    a telemetry store, choose among CA, BL and PL. A per-destination-link
    circuit breaker ({!Msdq_exec.Recovery.Breaker}) is fed by every
    admitted query's check-request leg fates; while a link's breaker is
    open, later queries whose checks could target it are re-planned onto
    CA (whose critical transfers wait out outages instead of dropping).

    Selection never changes semantics: each query's answer is
    byte-identical ({!answer_fingerprint}) to the answer a fixed-strategy
    run of the chosen strategy produces — the optimizer only decides {e
    which} prepared plan executes. *)

type auto_decision = {
  d_index : int;  (** position in the submitted job list *)
  d_arrival : Time.t;
  d_preferred : Strategy.t;
      (** the optimizer's unconstrained pick for this query *)
  d_chosen : Strategy.t;
      (** what actually ran, after breaker fallback and (under the
          [Degrade] shed policy) over-capacity degradation *)
  d_switched : bool;
      (** a breaker or overload forced [d_chosen <> d_preferred] *)
  d_reason : string option;  (** why, when it switched *)
}

type auto_outcome = {
  auto : outcome;  (** the workload outcome, as {!run} would report it *)
  decisions : auto_decision list;  (** in submission order *)
  switches : int;  (** decisions the breaker re-planned *)
}

val run_auto :
  ?tracer:Msdq_obs.Tracer.t ->
  ?registry:Msdq_obs.Metrics.t ->
  ?trace:bool ->
  ?store:Msdq_telemetry.Store.t ->
  ?objective:Msdq_opt.Planner.objective ->
  config ->
  Federation.t ->
  (Analysis.t * Time.t) list ->
  auto_outcome
(** Like {!run}, but each job is just (analyzed query, arrival) and the
    strategy is chosen per query at admission. [store] supplies observed
    per-strategy latencies (see {!Msdq_telemetry.Store.strategy_latency});
    without it selection is purely model-driven. [objective] defaults to
    response time. The workload registry additionally carries
    [msdq_auto_decisions_total{strategy}] and (when any decision switched)
    [msdq_auto_switches_total]. Validation rules are {!run}'s. Overload
    control composes: queue depth plus the deadline-miss EWMA feed
    {!Msdq_opt.Optimizer.decide}'s [overload] backpressure score, shed
    arrivals produce no decision, and under the [Degrade] policy an
    over-capacity arrival is forced onto its cheapest predicted candidate
    (recorded as a switched decision). *)

val answer_fingerprint : Answer.t -> string
(** Canonical bytes of an answer's {e result content}: every row's GOid,
    status and projected values, plus the degraded set and its reasons.
    Cache provenance is deliberately excluded — it is metadata about {e
    how} a row was certified, not {e what} was answered — so the
    cache-soundness property "warm and cold runs answer identically" is
    exactly [answer_fingerprint] equality. *)

val throughput : outcome -> float
(** [outcome.throughput], for symmetry with the sweep tables. *)
