(** The bench result document ([BENCH_<timestamp>.json]) and its section
    registry.

    {!sections} declares every section once ({!Bench_section.t}). The
    validator ([bench/main.exe --check]), the regression gate
    ([tools/bench_gate]) and the bench harness iterate it; the sweep
    sections live next to their sweeps ({!Fault_sweep.section} and so on),
    the sections only the bench produces live here. docs/COST_MODEL.md
    lists the schema versions. *)

module Json = Msdq_obs.Json

val schema : string
(** ["msdq-bench/11"]: the schema every new document is written with.
    {!validate} accepts [msdq-bench/6] through this one. *)

(** {1 Sections only the bench produces} *)

type parallel = {
  jobs : int;  (** worker domains incl. the caller ([--jobs]) *)
  grid_points : int;  (** grid points in the timed calibration sweep *)
  seq_s : float;  (** wall-clock of the calibration sweep at [--jobs 1] *)
  par_s : float;  (** wall-clock of the same sweep on the pool *)
  speedup : float;  (** [seq_s /. par_s] *)
}
(** What the domain pool bought on this machine, measured on a fixed
    calibration sweep whose output is asserted identical between the two
    timed runs. *)

type microbench = {
  mb_objects : int;  (** extent rows in the evaluation arms *)
  mb_boxed_eval : float;  (** objs/s, per-object [Predicate.eval] *)
  mb_columnar_eval : float;  (** objs/s, [Extent.eval_attr] *)
  mb_eval_speedup : float;  (** columnar / boxed *)
  mb_boxed_sig : float;  (** objs/s, per-object [Signature.may_satisfy] *)
  mb_bitset_sig : float;  (** objs/s, [Sigset.refuted_count] *)
  mb_sig_speedup : float;  (** bitset / boxed *)
  mb_certify_rows : int;  (** local rows fed to one [Certify.run] pass *)
  mb_certify_rows_per_s : float;
}
(** Columnar-engine throughput in objects/sec for local predicate
    evaluation and signature filtering, each measured in both
    representations so the speedups are same-process ratios, plus
    certification rows/sec. docs/PERFORMANCE.md explains how to read it. *)

val pp_parallel : Format.formatter -> parallel -> unit
val pp_latency : Format.formatter -> (string * Msdq_simkit.Stats.summary) list -> unit
val pp_microbench : Format.formatter -> microbench -> unit

val sections : Bench_section.t list
(** Every section, in document order: [parallel], [fault_sweep],
    [recovery_sweep], [serve_sweep], [latency] (per-strategy quantiles,
    non-decreasing), [auto_sweep], [overload_sweep], [gray_sweep],
    [microbench] (positive rates; the gate holds local-eval >= 5x and
    signature filter >= 1x), [strategies] and [wall] (bechamel wall-clock
    medians, required through [/10] and retired in [/11]). *)

val to_json :
  generated_at:string ->
  seed:int ->
  parallel:parallel ->
  fault_sweep:Fault_sweep.sweep ->
  recovery_sweep:Fault_sweep.recovery_sweep ->
  serve_sweep:Serve_sweep.sweep ->
  latency:(string * Msdq_simkit.Stats.summary) list ->
  auto_sweep:Auto_sweep.outcome ->
  overload_sweep:Overload_sweep.outcome ->
  gray_sweep:Gray_sweep.outcome ->
  microbench:microbench ->
  strategies:(string * float * float) list ->
  Json.t
(** The document. [strategies] carries one [(name, total_s, response_s)]
    triple per simulated strategy run on the demo workload; [latency]
    one quantile summary per strategy. [generated_at] is injected (not
    read from the clock) so tests stay deterministic. *)

val validate : Json.t -> (unit, string) result
(** Accepts [msdq-bench/6] through {!schema}. Requires [generated_at],
    [seed] and every section the document's version requires (from the
    section's [since] through its [until]), and runs the check of every
    section present. *)

val load : string -> (string * Json.t, string) result
(** Read, parse and {!validate} a file: the document and its schema id,
    or ["PATH: reason"]. Never raises. *)

val gate :
  tolerance:float ->
  baseline:string ->
  fresh:string ->
  Bench_section.verdict list
(** The regression gate: {!load} both files (a [baseline] directory stands
    for the newest [BENCH_*.json] in it), then hold every section's bars on
    the fresh document and compare its metrics against the baseline within
    [tolerance] (0.2 = 20%). The run fails when any verdict is a [Fail]. *)
