(** The paper's query execution strategies, run end to end.

    Each strategy computes the {e real} answer over the federation's data
    and replays its work onto the discrete-event simulator as a task graph
    with the paper's cost constants, yielding the two metrics of the
    evaluation: {e total execution time} (all resource work in the system)
    and {e response time} (makespan).

    {ul
    {- [Ca] — centralized, phase order O -> I -> P: ship projected extents,
       outerjoin on GOids at the global site, evaluate there.}
    {- [Bl] — basic localized, P -> O -> I: local predicates first, assistant
       checks only for the surviving maybe results, certification at the
       global site.}
    {- [Pl] — parallel localized, O -> P -> I: assistant lookup/dispatch for
       all root objects before local evaluation, so checking at remote sites
       overlaps local evaluation.}
    {- [Bls]/[Pls] — signature-filtered variants (future-work extension):
       single-attribute equality checks are pre-filtered against replicated
       object signatures, skipping provably futile round trips.}
    {- [Lo] — ablation: the localized approach with phase O removed. Local
       results are still merged per entity at the global site (so cross-
       database elimination and value merging still happen) but no assistant
       checks are issued; unsolved items stay unsolved. Comparing LO with BL
       isolates what assistant checking costs and buys.}
    {- [Cf] — semijoin-filtered centralized (extension, after the paper's
       reference [20]): databases first exchange surviving-GOid lists so
       that only candidate root objects are shipped for integration. Same
       answers as CA on consistent federations; cheaper shipping at low
       selectivity, one extra round trip always.}}

    Every run owns a private {!Msdq_obs.Metrics.t} registry and
    {!Msdq_obs.Tracer.t}: simulated-task counters carry
    [strategy]/[phase] labels, host-side execution records hierarchical
    spans, and nothing is stored in process globals, so concurrent runs
    can never bleed counts into each other. *)

open Msdq_simkit
open Msdq_fed
open Msdq_query

module Fault = Msdq_fault.Fault
(** Re-exported so callers can write [Strategy.Fault.none] without a second
    open. *)

module Recovery = Recovery
(** Failover recovery policy + per-link circuit breakers (see
    {!Recovery.policy}); selected through [options.recovery]. *)

type t = Ca | Bl | Pl | Bls | Pls | Lo | Cf

val all : t list

val to_string : t -> string

val of_string : string -> t option

type selection = Fixed of t | Auto
(** What a caller asks for: one fixed strategy, or adaptive cost-based
    selection per query ([Auto], implemented by [Msdq_opt.Optimizer] and
    the workload engine's [Msdq_serve.Serve.run_auto]). The enum lives
    here so command-line front ends can parse it without depending on the
    optimizer library. *)

val selection_to_string : selection -> string

val selection_of_string : string -> (selection, string) result
(** Case-insensitive. The error message lists the accepted set
    ([CA, BL, PL, BLS, PLS, LO, CF, AUTO]). *)

type adaptive = {
  k : float;  (** multiplier over the observed latency, > 0 *)
  lo : Time.t;  (** timeout floor, >= 0 *)
  hi : Time.t;  (** timeout ceiling, >= [lo]; also the no-observation default *)
}
(** Telemetry-driven per-destination retry timeouts:
    [clamp(lo, k x ewma(dst), hi)] over the destination's observed check
    round-trip latency (supplied through [options.latency_of], typically the
    telemetry store's per-link EWMA). A destination with no observation uses
    the generous [hi] so it is never spuriously demoted by an aggressive
    guess. *)

type retry = {
  timeout : Time.t;
      (** how long the sender waits after a lost transfer before
          retransmitting (the first attempt's wait; later waits grow by
          [backoff]); ignored when [adaptive] is set *)
  max_attempts : int;  (** attempts per check round-trip leg, >= 1 *)
  backoff : float;  (** multiplicative wait growth per attempt, >= 1 *)
  adaptive : adaptive option;
      (** [None] (the default): the static [timeout] for every destination —
          the historical behaviour. [Some _]: per-destination adaptive
          timeouts; also arms latency-aware breaker tripping
          ({!Recovery.Breaker.slow}) and telemetry-driven hedge delays. *)
}

val default_retry : retry
(** 1 ms static timeout, 3 attempts, doubling backoff, no adaptivity. *)

val default_adaptive : adaptive
(** [k = 2], floor 200 us, ceiling 4 ms. *)

val effective_timeout : ?latency_of:(int -> float option) -> retry -> dst:int -> Time.t
(** The resolved first-attempt timeout for [dst]: the static [timeout] when
    [adaptive] is [None], otherwise [clamp(lo, k x latency_of dst, hi)]
    ([hi] when [latency_of] is absent or has no observation for [dst]).
    Exposed so the serve layer and experiments resolve exactly the timeout
    the executors use. *)

val retry_wait : retry -> timeout:Time.t -> attempt:int -> Time.t
(** The wait after failed attempt [attempt] (>= 1) before the next one:
    [timeout x backoff^min(attempt - 1, 6)]. Every retry chain uses it,
    the workload engine's precomputed leg fates included. *)

type options = {
  cost : Cost.t;
  deep_certify : bool;
      (** run {!Deep} after certification (localized strategies only) *)
  multi_valued : bool;
      (** multi-valued integration (extension): disagreeing isomeric values
          form value sets with existential predicate semantics instead of
          being treated as conflicts *)
  site_speeds : (int * float) list;
      (** heterogeneous hardware: [(site, factor)] scales the site's CPU and
          disk speed (factor 0.5 = half speed; site 0 is the global
          processing site, database i lives at site i+1). Validated eagerly:
          duplicate site ids and non-positive or non-finite factors raise
          [Invalid_argument] before any simulated work happens. *)
  fault : Fault.schedule;
      (** fault injection (see {!Msdq_fault.Fault}): with {!Fault.none} (the
          default) the execution is exactly the fault-free one *)
  retry : retry;
      (** retransmission policy for check round trips under faults; result
          and extent shipments are critical and additionally wait out
          destination outages *)
  recovery : Recovery.policy;
      (** failover recovery for the localized strategies' checks (see
          {!Recovery}): with [failover] set, a check whose round trip was
          abandoned is re-issued to the next live site holding an isomeric
          replica (per-link circuit breakers gate the routing; optional
          hedged duplicates race the failover batch), and only keys no live
          replica could answer demote their rows. {!Recovery.disabled} (the
          default) reproduces the retry-only behaviour exactly. *)
  telemetry : bool;
      (** record latency histograms into the run's registry:
          [msdq_task_duration_us{strategy, site, resource, phase}]
          (log-bucketed, from the engine trace) and
          [msdq_query_latency_us{strategy}]. Off by default so existing
          registry dumps and [--json] reports stay byte-identical
          (golden-pinned). *)
  latency_of : (int -> float option) option;
      (** observed mean check round-trip latency (microseconds) per
          destination site, consulted by adaptive timeouts — typically a
          closure over the telemetry store's per-link statistics. [None]
          (the default) means no observations: adaptive timeouts fall back
          to their ceiling. *)
}

val default_options : options
(** Table 1 costs, no deep certification, no faults, {!default_retry},
    {!Recovery.disabled}, no latency observations. *)

val validate_options : options -> unit
(** Eager configuration validation: raises [Invalid_argument] with a
    readable message on duplicate or non-positive [site_speeds] entries, a
    malformed fault schedule, a retry policy with [max_attempts < 1],
    negative timeout or [backoff < 1], or an invalid recovery policy.
    {!run} calls this itself; it is exposed so other executors sharing
    [options] — the workload engine [Msdq_serve] — can fail just as early
    with the same diagnostics. *)

type availability = {
  faults_active : bool;  (** a non-empty fault schedule was installed *)
  failed_sites : int list;  (** sites with at least one outage window *)
  drops : int;  (** transfers lost (including lost retransmissions) *)
  retries : int;  (** retransmission attempts *)
  checks_abandoned : int;
      (** check requests whose round trip was given up after
          [retry.max_attempts] *)
  certain_fault_free : int;
      (** certain results the fault-free execution produces *)
  demoted : int;
      (** fault-free certain results reported as uncertified maybe results;
          reconciliation: certain(faulty) + demoted = certain(fault-free) *)
  recovered : int;
      (** rows touched by an abandoned check batch that failover re-routing
          nevertheless answered — what a retry-only run would have demoted;
          0 unless [options.recovery.failover] is set *)
  resurrected : int;
      (** entities the fault-free execution eliminates but that stay visible
          as maybe results because an eliminating verdict was lost *)
  partial : bool;
      (** a critical transfer was abandoned (a site never recovered): every
          row is reported as an uncertified maybe result *)
  degradation_ratio : float;  (** [demoted / certain_fault_free] *)
}
(** The availability section of a run: what the faults did and what the
    degraded answer admits to. Demoted and resurrected entities carry
    per-item provenance in {!Answer.degraded}. *)

val pp_availability : Format.formatter -> availability -> unit
(** Prints nothing when [faults_active] is false. For faulty runs, ends with
    the reconciliation line [certain(faulty) + demoted = certain(fault-free)]
    with the actual numbers, so degraded runs are auditable from the CLI
    without [--json]. *)

type metrics = {
  strategy : t;
  total : Time.t;  (** total execution time *)
  response : Time.t;  (** response time *)
  bytes_shipped : int;
  disk_bytes : int;
  messages : int;  (** network transfers performed *)
  check_requests : int;
  checks_filtered : int;  (** avoided by signatures *)
  work_units : int;  (** comparisons + accesses, all sites *)
  goid_lookups : int;
  promoted : int;  (** local maybe results certified into certain results *)
  eliminated_at_global : int;
  conflicts : int;  (** contradictory definite verdicts (inconsistent data) *)
  breakdown : (string * Time.t * int) list;  (** busy time per task label *)
  trace : Trace.t;
      (** simulated task trace; every entry carries [strategy]/[phase] (and
          [db] where applicable) attributes *)
  registry : Msdq_obs.Metrics.t;
      (** the run's private metrics registry; counters are labelled by
          [strategy] and paper phase ([O]/[P]/[I]) *)
  host_spans : Msdq_obs.Tracer.span list;
      (** host-side spans recorded while building/executing the run
          (materialization, local evaluation, check serving, certification) *)
  availability : availability;
      (** the run's fault/degradation report; [faults_active = false] and
          all-zero for fault-free runs *)
}

val run : ?options:options -> t -> Federation.t -> Analysis.t -> Answer.t * metrics

(** {2 Plans}

    A strategy is a plan replayed as a schedule on the sites. The plans
    below are computed host-side, once per query and strategy: the
    builders behind {!run} replay them, and the workload engine
    ([Msdq_serve.Serve]) reads the same plans. Every size a strategy reads
    or ships is derived here. *)

type local_phase = {
  db : string;
  site : int;  (** the database's site *)
  touched : (string * int) list;  (** {!Touch.count} *)
  result : Local_result.t;
  built : Checks.built;  (** no requests for LO *)
  probe_units : int option;  (** probe work, PL/PLS only *)
  eval_units : int;  (** local evaluation, row tagging included *)
  dispatch_units : int;  (** check dispatch: GOid probes, signature tests *)
  read_bytes : int;  (** {!Wire.localized_read_bytes} over [touched] *)
  ship_bytes : int;  (** the local results and local verdicts shipped *)
}
(** One database's phases P and O, and what it ships for phase I. *)

type check_batch = {
  origin : string;
  target : string;
  requests : Checks.request list;  (** in their original order *)
  served : Checks.served;  (** every request answered at [target] *)
}

type localized_plan = {
  phases : local_phase list;  (** in {!Localize.plan} order *)
  batches : check_batch list;
      (** per (origin, target) database pair, in order of first request *)
  results : Local_result.t list;  (** each phase's, in phase order *)
  local_verdicts : Checks.verdict list;  (** each phase's, in phase order *)
}

val local_evaluation :
  tracer:Msdq_obs.Tracer.t -> Federation.t -> Analysis.t -> db:string ->
  Local_result.t * (string * int) list
(** One database's {!Local_eval.run} and {!Touch.count}: the part of a
    localized plan that every localized strategy shares. *)

val plan_localized :
  ?local:(string -> Local_result.t * (string * int) list) ->
  ?signatures:Sig_catalog.t -> tracer:Msdq_obs.Tracer.t -> Cost.t ->
  parallel:bool -> checks:bool -> Federation.t -> Analysis.t -> localized_plan
(** The localized plan of BL ([parallel = false]), PL ([parallel = true])
    and LO ([checks = false]: no check requests). [parallel] probes every
    root object first and builds checks over the probe's missing items;
    otherwise the checks cover the unsolved items of the maybe rows.
    [signatures] pre-filters the checks (BLS/PLS). [local db] supplies each
    database's {!local_evaluation}; by default it runs here. *)

val full_verdicts : localized_plan -> Checks.verdict list
(** What full delivery brings the global site: the local verdicts, then
    every batch's served verdicts, in batch order. *)

(** {2 Degradation} *)

val entities_referencing :
  Local_result.t list -> (string * Msdq_odb.Oid.Loid.t * int) list ->
  Msdq_odb.Oid.Goid.Set.t
(** The entities one of whose rows has an unsolved (database, item, atom)
    among the keys. *)

val degrade :
  results:Local_result.t list -> reference:Answer.t ->
  lost:Checks.request list -> Answer.t -> Answer.t
(** The one rule for checks whose verdicts never reached the global site,
    shared by {!run}'s retry-only path and the workload engine. [answer]
    certifies the verdicts that arrived, [reference] every verdict.
    {!Answer.demote} takes the entities that reference a request of [lost]
    and the suspects: certain in [answer] but not in [reference], or
    present in [answer] although [reference] eliminated them. *)

type ca_extent = {
  ca_db : string;
  ca_site : int;
  extent_bytes : int;  (** {!Wire.projected_extent_bytes} *)
}

type ca_plan = {
  outcome : Ca.outcome;
  extents : ca_extent list;  (** per database, in federation order *)
  integrate_units : int;  (** outerjoin work at the global site, lookups included *)
  global_eval_units : int;  (** global predicate evaluation *)
}

val plan_ca :
  ?multi_valued:bool -> tracer:Msdq_obs.Tracer.t -> Cost.t -> Federation.t ->
  Analysis.t -> ca_plan
(** CA's plan: the integration and evaluation ({!Ca.run}) and the extents
    every database ships. *)

val apply_site_speeds : Engine.t -> (int * float) list -> unit
(** Scales each listed site's CPU and disk ([options.site_speeds]). *)

val record_latency_histograms : Msdq_obs.Metrics.t -> Trace.entry list -> unit
(** Observes every resource task of a trace into
    [msdq_task_duration_us{strategy, site, resource, phase}], reading the
    strategy and phase from the entry's attributes (["-"] when absent). *)

val observe_query_latency : Msdq_obs.Metrics.t -> sname:string -> Time.t -> unit
(** Observes one query's latency into [msdq_query_latency_us{strategy}]. *)

val phase_breakdown : metrics -> (string * Time.t * int) list
(** Busy time and task count per paper phase, computed from the task trace's
    [phase] attributes. Always three entries, in order [O]; [P]; [I]. *)

val run_query :
  ?options:options -> t -> Federation.t -> string -> (Answer.t * metrics, string) result
(** Parse, analyze against the federation's global schema, and {!run}.
    Returns [Error] with a readable message on parse/analysis failures. *)

val pp_metrics : Format.formatter -> metrics -> unit
