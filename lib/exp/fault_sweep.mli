(** The fault sweep (robustness extension): response time and certain-set
    recall of the concrete executors against decreasing site availability.

    Unlike {!Figures} (which drives the parametric simulator), this sweep
    runs the {e concrete} strategies on synthetic federations with a random
    recoverable {!Msdq_fault.Fault.random} schedule per sample: site crash
    windows covering an expected [1 - availability] of the run plus a 5%
    lossy incoming link on every site — including the global one, which
    never crashes but whose link losses make CA wait on retransmissions.
    Each sample's faulty runs are compared against their own fault-free
    reference executions:

    {ul
    {- {e response time} — the degraded run's makespan, including
       retransmission waits and recovery waits;}
    {- {e certain-set recall} — the fraction of the fault-free certain
       results the degraded run still certifies. Degradation soundness
       guarantees the faulty certain set is a subset of the fault-free one,
       so recall is exactly the complement of the demotion ratio.}}

    Four series: CA, BL and PL, plus a ["fail-stop"] baseline — a client of
    the same faulty BL execution with no degraded-answer mode, whose query
    simply aborts (recall 0) whenever any transfer was lost. The gap between
    BL/PL and fail-stop is what sound degraded answers buy.

    Determinism matches {!Figures}: the (availability, sample) grid merges
    in index order and every point draws from index-derived rng streams, so
    results are bit-identical for any [?pool] worker count. *)

open Msdq_exec

type series = {
  label : string;  (** strategy name, or ["fail-stop"] for the baseline *)
  responses : float array;  (** mean response time per availability, seconds *)
  recalls : float array;  (** mean certain-set recall per availability *)
}

type sweep = {
  id : string;  (** ["fault-sweep"] *)
  title : string;
  xlabel : string;
  xs : float array;  (** availability levels, ascending, ending at 1.0 *)
  samples : int;
  seed : int;
  series : series list;  (** CA; BL; PL; fail-stop *)
}

val run :
  ?pool:Msdq_par.Pool.t ->
  ?registry:Msdq_obs.Metrics.t ->
  ?progress:(figure:string -> completed:int -> total:int -> unit) ->
  ?samples:int ->
  ?seed:int ->
  ?cost:Cost.t ->
  ?drop:float ->
  ?inflate:float ->
  unit ->
  sweep
(** Availability levels 0.7, 0.8, 0.9, 0.95 and 1.0; [samples] (default 12)
    federation/query draws per level. [drop] (default 0.05) is the loss
    probability and [inflate] (default 1) the latency inflation factor of
    every site's incoming link on the faulty levels. At availability 1.0
    every schedule is {!Msdq_fault.Fault.none} whatever the link knobs, so
    that column doubles as the fault-free anchor: recall 1 everywhere. *)

val series_of : sweep -> string -> series
(** Raises [Not_found] when the sweep has no series with that label. *)

(** {1 The recovery sweep}

    Same grid and case generation as {!run}, but comparing the recovery
    policies on each faulty execution: retry-only
    ({!Msdq_exec.Recovery.disabled}), failover
    ({!Msdq_exec.Recovery.default}) and failover+hedging
    ({!Msdq_exec.Recovery.hedged} at 0.5 ms). One series per
    (strategy, mode) cell, labelled ["BL+failover"] etc. CA has no check
    round trips to re-route, so its three modes coincide — the flat CA
    triple is the control that recovery is a localized-strategy feature. *)

type rmode = Retry_only | Failover | Hedged

val rmodes : rmode list
(** [Retry_only]; [Failover]; [Hedged] — series order within a strategy. *)

val rmode_label : rmode -> string
(** ["retry"], ["failover"], ["hedged"]. *)

type rseries = {
  r_label : string;  (** ["<STRATEGY>+<mode>"], e.g. ["BL+failover"] *)
  r_responses : float array;  (** mean response per availability, seconds *)
  r_recalls : float array;  (** mean certain-set recall per availability *)
  r_demoted : float array;  (** mean demoted rows per availability *)
}

type recovery_sweep = {
  rid : string;  (** ["recovery-sweep"] *)
  rtitle : string;
  rxlabel : string;
  rxs : float array;  (** availability levels, same grid as {!run} *)
  rsamples : int;
  rseed : int;
  rseries : rseries list;  (** strategy-major: CA+retry .. PL+hedged *)
}

val run_recovery :
  ?pool:Msdq_par.Pool.t ->
  ?registry:Msdq_obs.Metrics.t ->
  ?progress:(figure:string -> completed:int -> total:int -> unit) ->
  ?samples:int ->
  ?seed:int ->
  ?cost:Cost.t ->
  ?drop:float ->
  ?inflate:float ->
  unit ->
  recovery_sweep
(** Unlike {!run}, the availability-1.0 column is {e not} fault-free: the
    schedule is {!Msdq_fault.Fault.random} at availability 1.0, i.e.
    lossy-link-only — sites never crash but messages still drop (default
    [drop] 0.2) — so that column isolates what failover buys against pure
    message loss. Deterministic for any [?pool] worker count, like
    {!run}. *)

val rseries_of : recovery_sweep -> string -> rseries
(** Raises [Not_found] when the sweep has no series with that label. *)

(** {1 Reports} *)

val to_json : sweep -> Msdq_obs.Json.t
(** The [fault_sweep] bench section, also the [--json] payload of
    [msdq experiment fault-sweep]. *)

val recovery_to_json : recovery_sweep -> Msdq_obs.Json.t
(** The [recovery_sweep] bench section. *)

val pp : Format.formatter -> sweep -> unit
val pp_recovery : Format.formatter -> recovery_sweep -> unit

val to_csv : sweep -> string
(** One row per availability level ([--csv]). *)

val recovery_to_csv : recovery_sweep -> string

val section : Bench_section.t
(** Its check also holds every strategy's recall at or above the
    fail-stop baseline's at every level. *)

val recovery_section : Bench_section.t
