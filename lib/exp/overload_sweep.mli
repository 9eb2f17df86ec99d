(** The overload experiment: goodput and tail latency vs offered load,
    per shed policy (the robustness win condition of the serve engine's
    overload controls).

    One dense synthetic federation and one BL query shape, served at
    offered loads of 0.5x, 1x, 2x and 3x the calibrated capacity (the
    realized solo response of one served query). Each load point runs
    once {e naive} — unbounded queue, no deadline, the pre-overload
    engine — and once per shed policy with a depth-{!queue_limit}
    admission queue and a deadline budget of 1.8x the solo response.

    The win condition, recorded in the bench JSON's [overload_sweep]
    section ([msdq-bench/8]) and enforced by its validator: the naive
    baseline's p99 grows monotonically with offered load and blows past
    twice the at-capacity p99, while with shedding and deadlines the p99
    of {e admitted} queries stays within 2x the at-capacity p99 at every
    overloaded point (rejecting policies; [degrade] trades latency for
    admitting everything and is reported but not bounded).

    Every cell is a pure function of (seed, policy, multiplier): running
    the grid on a {!Msdq_par.Pool} of any size yields bit-identical
    outcomes (jobs-invariance, pinned by the test suite). *)

type point = {
  pt_policy : string;
      (** ["naive"] or a {!Msdq_serve.Serve.shed_policy} name *)
  pt_multiplier : float;  (** offered load as a multiple of capacity *)
  pt_offered : int;  (** queries submitted *)
  pt_admitted : int;  (** queries served (offered minus shed) *)
  pt_shed : int;
  pt_goodput : float;  (** admitted queries per simulated second *)
  pt_deadline_hits : int;
      (** admitted queries that completed within the budget with no
          deadline demotions *)
  pt_hit_rate : float;  (** [deadline_hits / admitted] *)
  pt_p50_ms : float;  (** median admitted latency *)
  pt_p99_ms : float;  (** p99 admitted latency *)
  pt_demoted_rows : int;  (** rows demoted at the deadline, summed *)
  pt_abandoned_checks : int;
      (** check requests whose round trips the deadline abandoned (rows
          that would have certified anyway lose nothing — the anytime
          floor — so this can be positive while [pt_demoted_rows] is 0) *)
}

type outcome = {
  id : string;
  title : string;
  seed : int;
  queries : int;  (** jobs offered per cell *)
  queue_limit : int;  (** admission depth bound of the controlled rows *)
  solo_response_ms : float;  (** calibrated capacity service time *)
  deadline_ms : float;  (** the budget of the controlled rows *)
  multipliers : float array;  (** the load grid, ascending *)
  policies : string list;  (** row order: naive first, then shed policies *)
  points : point list;  (** policy-major, multiplier-minor *)
  cap_p99_ms : float;
      (** at-capacity p99: the reject-newest row at multiplier 1.0 *)
}

val naive_policy : string
(** ["naive"] — the unbounded, deadline-free baseline row. *)

val multipliers : float array
(** [[| 0.5; 1.0; 2.0; 3.0 |]]. *)

val queue_limit : int
(** Depth bound of the controlled rows (2). *)

val policies : string list
(** [naive] plus every shed policy name, in fixed order. *)

val run :
  ?pool:Msdq_par.Pool.t ->
  ?registry:Msdq_obs.Metrics.t ->
  ?progress:(figure:string -> completed:int -> total:int -> unit) ->
  ?queries:int ->
  ?seed:int ->
  ?cost:Msdq_exec.Cost.t ->
  unit ->
  outcome
(** Defaults: 16 queries per cell, seed 1996, Table-1 costs. [pool]
    parallelizes cells without changing the outcome. Raises
    [Invalid_argument] if the seed yields no analyzable query. *)

val points_of : outcome -> string -> point list
(** The points of one policy row, in multiplier order. *)

(** {1 Reports} *)

val to_json : outcome -> Msdq_obs.Json.t
(** The [overload_sweep] bench section, also the [--json] payload of
    [msdq experiment overload-sweep]. *)

val pp : Format.formatter -> outcome -> unit

val section : Bench_section.t
(** Its check enforces the win condition stated above. *)
