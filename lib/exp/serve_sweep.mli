(** The serve sweep (workload-engine extension): throughput of the
    multi-query workload engine against cache capacity and check-batching
    admission window, CA vs BL vs PL.

    Each sample synthesizes a federation and a repeated-query workload and
    runs it through [Msdq_serve] once per (strategy, window, cache size)
    cell — the zero-capacity column is the cold anchor, so each series'
    speedup is its own warm-over-cold makespan ratio. The paper has no
    multi-query evaluation; this sweep quantifies the extension's claim
    that cross-query caching and batching buy simulated-clock throughput
    without ever changing an answer (the cache-soundness property the test
    suite checks separately).

    Determinism matches the other sweeps: every sample draws from
    index-derived rng streams, so results are bit-identical for any
    [?pool] worker count. *)

open Msdq_exec

type series = {
  label : string;  (** ["<STRATEGY> w=<window>us"], e.g. ["BL w=500us"] *)
  strategy : string;
  window_us : float;
  throughputs : float array;
      (** mean queries per simulated second, one entry per cache size *)
  speedups : float array;
      (** mean cold-makespan / makespan per cache size; the zero-capacity
          entry is 1 by construction *)
  hits : float array;
      (** mean cache hits (extent + verdict) per query per cache size *)
}

type sweep = {
  id : string;  (** ["serve-sweep"] *)
  title : string;
  xlabel : string;
  xs : float array;  (** cache capacities in KiB, ascending from 0 *)
  windows_us : float array;  (** admission windows swept, microseconds *)
  queries : int;  (** queries per workload *)
  samples : int;
  seed : int;
  series : series list;  (** strategy-major, window-minor: CA w=0 .. PL w=500 *)
}

val run :
  ?pool:Msdq_par.Pool.t ->
  ?registry:Msdq_obs.Metrics.t ->
  ?progress:(figure:string -> completed:int -> total:int -> unit) ->
  ?samples:int ->
  ?queries:int ->
  ?seed:int ->
  ?cost:Cost.t ->
  unit ->
  sweep
(** Cache capacities 0, 16 KiB, 256 KiB and 4 MiB; windows 0 and 500 us;
    [samples] (default 4) federation/workload draws, each a stream of
    [queries] (default 6) identical analyzed queries spaced 500 us apart —
    the repetition is what cross-query caching exploits. Parallelizes over
    samples when [pool] has more than one worker. *)

val series_of : sweep -> string -> series
(** Raises [Not_found] when the sweep has no series with that label. *)

(** {1 Reports} *)

val to_json : sweep -> Msdq_obs.Json.t
(** The [serve_sweep] bench section, also [msdq serve --sweep --json]. *)

val pp : Format.formatter -> sweep -> unit

val section : Bench_section.t
(** Its check also holds each series' last speedup at or above its
    cold-cache start. *)
