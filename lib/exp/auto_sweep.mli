(** The AUTO experiment: adaptive selection vs every fixed strategy on a
    mixed workload (ROADMAP item 2's win condition).

    One synthetic federation, a stream of distinct conjunctive queries
    chosen so the cost model predicts different winners with a real
    margin, served four ways: once per fixed candidate strategy (CA, BL,
    PL) and once under {!Msdq_serve.Serve.run_auto}. The win condition —
    AUTO's makespan is no worse than the best fixed strategy's, and the
    model's predicted ranking matches the observed (solo-run) ranking on
    at least 80% of the distinct queries — is recorded in the bench
    JSON's [auto_sweep] section ([msdq-bench/7]) and enforced by its
    validator.

    Caching is disabled in the serve configuration: a homogeneous
    workload re-hits its own extents while a mixed one spreads them over
    strategies, so warm caches would bias the comparison {e against}
    AUTO for reasons unrelated to selection quality. Everything is
    deterministic in [seed]. *)

open Msdq_exec

type fixed_run = { f_strategy : Strategy.t; f_makespan_s : float }

type outcome = {
  id : string;
  title : string;
  queries : int;  (** jobs served per run *)
  distinct : int;  (** distinct query shapes in the mix *)
  seed : int;
  spacing_us : float;  (** arrival spacing *)
  fixed : fixed_run list;  (** one per candidate, in candidate order *)
  auto_makespan_s : float;
  decisions : (string * int) list;
      (** how often AUTO chose each candidate, in candidate order *)
  switches : int;  (** breaker-forced re-plans (0 on this fault-free mix) *)
  rank_matches : int;
  rank_match_rate : float;  (** [rank_matches / distinct] *)
}

val run :
  ?registry:Msdq_obs.Metrics.t ->
  ?progress:(figure:string -> completed:int -> total:int -> unit) ->
  ?queries:int ->
  ?distinct:int ->
  ?seed:int ->
  ?cost:Cost.t ->
  unit ->
  outcome
(** Defaults: 8 queries cycling over 4 distinct shapes, seed 1996, Table-1
    costs. *)

val min_fixed_makespan : outcome -> float
(** The best fixed strategy's makespan — what AUTO has to beat. *)

(** {1 Reports} *)

val to_json : outcome -> Msdq_obs.Json.t
(** The [auto_sweep] bench section, also the [--json] payload of
    [msdq experiment auto-sweep]. *)

val pp : Format.formatter -> outcome -> unit

val section : Bench_section.t
(** Its check enforces the win condition: AUTO's makespan does not exceed
    the best fixed strategy's. *)
