(** Runner for static task graphs: every task and dependency is known before
    the run starts.

    The submission functions mirror {!Engine}'s, without completion
    callbacks, promises, a fault judge or speed factors. Tasks are stored as
    parallel arrays (site, kind, duration, label, attrs) with all
    dependencies in one flat array, and a handle is the task's submission
    index. A run schedules exactly as {!Engine} does on the same graph, so
    its totals, {!stats} and {!trace} are bit-identical to Engine's:

    - dependency-free tasks activate at time zero in submission order;
    - each (site, kind) resource serves its tasks FIFO;
    - completion events fire by finish time, then by push order;
    - a completing task hands its resource to the next queued task, then
      unblocks its dependents in submission order (a dependency listed
      twice counts twice);
    - busy time is summed in completion order.

    {!Engine} serves the concrete executors, whose graphs grow from
    callbacks and whose runs may be judged by faults; the parametric
    simulator ([Msdq_opt.Param_sim]) builds its graphs here. *)

type t

type handle = int
(** The task's submission index, from 0. *)

val create : unit -> t
(** An empty graph. Sites are implicit, as in {!Engine}: any non-negative
    integer names one. *)

val task :
  t -> ?deps:handle list -> ?attrs:(string * string) list -> site:int ->
  kind:Resource.kind -> label:string -> duration:Time.t -> unit -> handle
(** Occupies [kind] at [site] for [duration] once all [deps] have finished.
    Raises [Invalid_argument] on a negative or non-finite duration, a
    negative site, a handle not submitted earlier to this graph, or a graph
    that has already run. *)

val transfer :
  t -> ?deps:handle list -> ?attrs:(string * string) list -> src:int ->
  dst:int -> label:string -> duration:Time.t -> unit -> handle
(** Occupies [dst]'s incoming link for [duration]. A transfer between a
    site and itself is a zero-length {!fence}, as in {!Engine}. *)

val fence :
  t -> ?deps:handle list -> ?attrs:(string * string) list -> label:string ->
  unit -> handle
(** Completes as soon as all [deps] have finished, consuming no resource. *)

val delay :
  t -> ?deps:handle list -> ?attrs:(string * string) list -> label:string ->
  duration:Time.t -> unit -> handle
(** Finishes [duration] after becoming eligible, occupying no resource. *)

type totals = {
  total_busy : Time.t;  (** {!Stats.total_busy} of the run *)
  makespan : Time.t;  (** {!Stats.makespan} of the run *)
}

val run : t -> totals
(** Runs the graph to completion. A graph runs once: a second [run] raises
    [Invalid_argument]. *)

val stats : t -> Stats.t
(** The run's statistics, built on demand from its arrays: equal to
    [Engine.stats] on the same graph. Raises [Invalid_argument] before
    {!run}. *)

val trace : t -> Trace.t
(** The run's trace, built on demand (always enabled): equal to the trace of
    an [Engine] created with [~trace:true] on the same graph. Raises
    [Invalid_argument] before {!run}. *)
