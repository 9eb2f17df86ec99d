(** The paper's performance study methodology: a parametric simulation.

    The evaluation of Section 4 does not execute real data; it draws 500
    parameter sets from Table 2 per configuration and estimates the total
    execution time and response time of each algorithm from the cost
    constants of Table 1. This module reproduces that: from one parameter
    {!Msdq_workload.Params.sample} it derives the expected cardinalities of
    every phase (survivors after local predicates, maybe ratios, unsolved
    items, assistant fan-out from [R_iso] and [N_iso], check selectivities),
    builds the same task graph the concrete executor builds — same sites,
    same resources, same dependencies — and runs it through the
    discrete-event engine {!Msdq_simkit.Engine}, reading only its
    {!Msdq_simkit.Engine.totals}.

    The estimation formulas are documented inline; DESIGN.md discusses how
    each maps to a Table 2 parameter. *)

open Msdq_simkit
open Msdq_workload

type times = { total : Time.t; response : Time.t }

type overrides = {
  root_local_selectivity : float option;
      (** Figure 11's knob: force the selectivity of the local predicates on
          the root class in every database. *)
}

val no_overrides : overrides

val simulate :
  ?overrides:overrides -> cost:Msdq_exec.Cost.t -> Msdq_exec.Strategy.t ->
  Params.sample -> times

val average :
  ?overrides:overrides -> ?pool:Msdq_par.Pool.t -> cost:Msdq_exec.Cost.t ->
  samples:int -> seed:int -> ranges:Params.ranges -> Msdq_exec.Strategy.t ->
  times
(** Draws [samples] parameter sets (deterministically from [seed]) and
    averages both metrics — the paper's 500-sample averaging. Raises
    [Invalid_argument] when [samples < 1].

    Sample [i] draws from its own stream, [Rng.split_ix (Rng.create ~seed) ~i],
    and the averages reduce in index order; with [?pool] the samples evaluate
    on the pool's domains and the result stays bit-identical to the
    sequential path for any worker count. *)
