(** Exportable run reports: JSON metrics, Chrome traces, utilization tables,
    explain tables and figures. The bench result document is {!Bench}.

    Everything here is deterministic given its inputs (no clock reads), so
    the emitted bytes are stable and golden-testable. JSON goes through
    {!Msdq_obs.Json}; the repo carries no third-party JSON dependency. *)

open Msdq_query
open Msdq_exec
module Json = Msdq_obs.Json

val metrics_to_json : Strategy.metrics -> Json.t
(** One strategy run: totals, per-phase (O/P/I) busy time and task counts,
    shipping/disk/message/check counters, the per-label breakdown, and the
    full metrics registry dump. When the run had a fault schedule installed,
    an extra ["availability"] object carries the fault/degradation report
    (failed sites, drops, retries, abandoned checks, demotions,
    resurrections, the partial flag and the degradation ratio); fault-free
    documents are byte-identical to what earlier versions emitted. *)

val availability_to_json : Strategy.availability -> Json.t
(** The ["availability"] section alone. *)

val run_to_json : Answer.t -> Strategy.metrics -> Json.t
(** {!metrics_to_json} plus an answer summary (certain/maybe counts). *)

val query_to_json :
  query:string -> (Answer.t * Strategy.metrics) list -> Json.t
(** The [msdq query --json] document: the query string and one entry per
    strategy run. *)

val chrome_trace : Strategy.metrics list -> Json.t
(** Chrome [trace_event] document for one or several runs sharing a site
    numbering: one complete event per engine task (pid = site, tid =
    resource, args = strategy/phase/db attribution), fences on a separate
    lane, host spans under {!Msdq_obs.Tracer.host_pid}, plus one flow
    event pair per recorded task dependency — the causal edges that let
    Perfetto draw each query's tree across sites. Opens in
    [chrome://tracing] or Perfetto. *)

val chrome_trace_of_entries : Msdq_simkit.Trace.entry list -> Json.t
(** Same document for a raw engine trace (no host spans) — the serve
    path's [outcome.trace], where the whole workload shares one engine. *)

val pp_utilization : Format.formatter -> Strategy.metrics -> unit
(** Per-site, per-phase busy-time table computed from the task trace. *)

val figure_to_json : Figures.figure -> Json.t
(** One regenerated figure: id, title, axis, xs and every series. *)

val figures_to_json : Figures.figure list -> Json.t
(** The [msdq experiment --json] document. *)

val pp_explain : Format.formatter -> Answer.t -> unit
(** Per-row provenance table ([msdq query --explain]): every row's GOid and
    status plus {e why} — degraded rows print the recorded reason (the
    check round trip that never returned), cache-certified rows say so,
    and the remaining maybe rows are honest missing-data maybes. *)

val record_serve_stats : store:Msdq_telemetry.Store.t -> Msdq_serve.Serve.outcome -> unit
(** Fold one serve outcome into a persistent telemetry store: one entry
    per strategy in the workload (keyed [db="*", site=0, link=0]) carrying
    the strategy's mean query latency and mean demotions plus the
    workload's drop and cache-hit rates, then counts the run. Inputs for
    the AUTO strategy selector (ROADMAP item 2). *)
