(** Accumulated statistics of a simulation run.

    [total_busy] is the paper's {e total execution time}: the sum of the
    durations of every resource-occupying task in the whole system.
    [makespan] is the paper's {e response time}: the simulated instant at
    which the last task finished. *)

type t

val create : unit -> t

val record :
  t -> site:int -> kind:Resource.kind -> label:string -> duration:Time.t ->
  finish:Time.t -> unit
(** Accounts one finished task. Fence/delay tasks (no resource) are recorded
    with their makespan contribution only, via {!record_fence}. *)

val record_fence : t -> finish:Time.t -> unit

val total_busy : t -> Time.t

val makespan : t -> Time.t

val task_count : t -> int

val busy_of_site : t -> int -> Time.t

val busy_of_kind : t -> Resource.kind -> Time.t

val busy_of : t -> site:int -> kind:Resource.kind -> Time.t

val by_label : t -> (string * Time.t * int) list
(** Busy time and task count aggregated per task label, sorted by decreasing
    busy time. Useful for cost breakdowns in reports. *)

(** {2 Sample summaries}

    Pure helpers over duration samples (microseconds), used by the
    telemetry layer. All of them are total: zero observations yield an
    all-zero result rather than an exception or a NaN, so empty summaries
    can flow into JSON reports safely. *)

type summary = {
  n : int;
  mean_us : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  max_us : float;
}

val empty_summary : summary

val mean : float list -> float
(** Arithmetic mean; [0.0] on the empty list. *)

val percentile : float list -> float -> float
(** [percentile xs q] is the nearest-rank [q]-percentile ([q] clamped to
    [0, 1]); [0.0] on the empty list. *)

val percentile_ms : float list -> float -> float
(** {!percentile} of microsecond samples, in milliseconds. *)

val summarize : float list -> summary
(** [n]/mean/p50/p90/p99/max in one pass; {!empty_summary} on []. *)

val pp_summary : Format.formatter -> t -> unit
