(** The gray-failure tolerance experiment: static vs telemetry-driven
    adaptive retry timeouts across the gray fault kinds.

    One dense synthetic federation and one BL query shape, served as a
    stream of [queries] jobs under each cell of a
    (policy x kind x severity) grid:

    {ul
    {- {e policy} — ["static"] (one conservative operator-sized fixed
       timeout, orders of magnitude above the adaptive ceiling) or
       ["adaptive"]
       ({!Msdq_exec.Strategy.default_adaptive} per-destination timeouts fed
       by a warmup run's recorded per-link latencies — the full telemetry
       loop through {!Run_report.record_serve_stats} and
       [Store.latency_of], not an oracle);}
    {- {e kind} — ["slowdown"] (CPU/disk stretch at the database sites),
       ["jitter"] (deterministic per-transfer latency draws), ["flap"]
       (rapid down/up outage trains), ["oneway"] (asymmetric outbound
       partitions: requests arrive, verdicts are lost);}
    {- {e severity} — ["mild"] or ["severe"] window coverage / factors.}}

    Every cell also carries a {!base_drop} lossy link, so retransmission
    waits exist for the timeout policy to act on.

    The win condition, recorded in the bench JSON's [gray_sweep] section
    ([msdq-bench/9]) and enforced by its validator: leg fates are
    timeout-independent by construction, so the adaptive arm must demote
    no more rows than the static arm on {e every} cell, and on the
    slowdown cells its mean response must undercut the static arm's by at
    least {!response_margin}.

    Every cell is a pure function of (seed, policy, kind, severity):
    running the grid on a {!Msdq_par.Pool} of any size yields
    bit-identical outcomes. *)

type point = {
  pt_policy : string;  (** ["static"] or ["adaptive"] *)
  pt_kind : string;  (** ["slowdown"], ["jitter"], ["flap"] or ["oneway"] *)
  pt_severity : string;  (** ["mild"] or ["severe"] *)
  pt_queries : int;
  pt_demoted_rows : int;
      (** rows reported as uncertified maybes because a gray fault ate a
          check leg, summed over the stream *)
  pt_abandoned_checks : int;
  pt_mean_ms : float;  (** mean served latency *)
  pt_p99_ms : float;
  pt_gray_sites : int;  (** [Fault.gray_sites] of the cell's schedule *)
}

type outcome = {
  id : string;
  title : string;
  seed : int;
  queries : int;  (** jobs per cell *)
  drop : float;  (** the shared baseline link loss *)
  static_timeout_ms : float;
      (** the static arm's fixed timeout (100 ms) *)
  kinds : string list;
  severities : string list;
  policies : string list;  (** [static; adaptive] *)
  points : point list;  (** policy-major, kind, then severity *)
}

val static_policy : string
val adaptive_policy : string
val policies : string list
val kinds : string list
val severities : string list

val base_drop : float
(** The lossy-link probability every cell shares (0.3). *)

val response_margin : float
(** The slowdown-cell response-time win margin the validator enforces
    (0.05 = adaptive mean must be at least 5% under static). *)

val run :
  ?pool:Msdq_par.Pool.t ->
  ?registry:Msdq_obs.Metrics.t ->
  ?progress:(figure:string -> completed:int -> total:int -> unit) ->
  ?queries:int ->
  ?seed:int ->
  ?cost:Msdq_exec.Cost.t ->
  unit ->
  outcome
(** Defaults: 12 queries per cell, seed 1996, Table-1 costs. [pool]
    parallelizes cells without changing the outcome. Raises
    [Invalid_argument] if the seed yields no analyzable query. *)

val point_of :
  outcome -> policy:string -> kind:string -> severity:string -> point option

(** {1 Reports} *)

val to_json : outcome -> Msdq_obs.Json.t
(** The [gray_sweep] bench section, also the [--json] payload of
    [msdq experiment gray-sweep]. *)

val pp : Format.formatter -> outcome -> unit

val section : Bench_section.t
(** Its check enforces the win condition stated above. *)
