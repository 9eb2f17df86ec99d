(** Discrete-event engine over dynamic task graphs.

    A simulation is a set of {e tasks}. A task occupies one resource of one
    site for a fixed duration ({!task}), models a network transfer into a
    site ({!transfer} occupies the destination's incoming link), or is a
    zero-width synchronization point ({!fence}) or pure delay ({!delay}).

    Tasks become eligible when all their dependencies have finished, then
    queue FIFO at their resource. Completion callbacks run at the task's
    finish instant and may submit further tasks, so executors can build the
    graph dynamically as data becomes available — this is how the concrete
    CA/BL/PL strategies compute real answers while being charged simulated
    time.

    {b Fault injection.} An installed {!judge} inspects every resource task
    as it starts and may stretch its duration (latency inflation on a lossy
    link) or doom it. A doomed task occupies its resource for the full
    stretched duration and completes {!Dropped} at its would-be finish time
    — the sender only learns of the loss then, exactly like a lost message
    under a timeout. Dropped tasks still unblock their dependents; the
    failure travels through [on_outcome], and retry chains are modelled as
    fresh tasks submitted from those callbacks (see {!Msdq_fault.Fault}).

    {b Determinism.} The ordering rules that can change a number:

    - dependency-free tasks start on submission, in submission order;
    - each (site, kind) resource serves its tasks FIFO;
    - completion events fire by finish time, then by push order;
    - a completing task hands its resource to the next queued task, then
      unblocks its dependents in submission order (a dependency listed
      twice counts twice), then runs its [on_complete] and [on_outcome]
      callbacks;
    - busy time is summed in completion order. *)

type t

type handle
(** Identifies a submitted task. *)

type outcome =
  | Delivered  (** the task finished normally *)
  | Dropped of string  (** doomed by the fault judge; carries the reason *)

type decision = {
  fault_duration : Time.t;
      (** effective duration, e.g. the original stretched by a lossy link's
          inflation factor *)
  fault_drop : string option;
      (** [Some reason] dooms the task: it completes [Dropped reason] *)
}

type judge =
  site:int ->
  kind:Resource.kind ->
  src:int option ->
  label:string ->
  start:Time.t ->
  duration:Time.t ->
  decision option
(** Consulted when a resource task starts ([duration] is already scaled by
    the site's speed factor). [src] is the sending site for tasks submitted
    through {!transfer} (so a judge can model one-way partitions out of a
    site) and [None] for every other task. [None] leaves the task
    untouched. *)

val create : ?trace:bool -> unit -> t
(** A fresh engine with clock at zero. Sites are implicit: any non-negative
    integer used as a site id materializes its resources on first use; a
    negative one raises [Invalid_argument]. *)

val set_judge : t -> judge -> unit
(** Installs the fault judge. Applies to tasks that {e start} after the
    call. *)

val set_speed : t -> site:int -> kind:Resource.kind -> factor:float -> unit
(** Heterogeneous hardware: a resource with factor [f] executes tasks [f]
    times faster (durations divide by [f]; [f < 1] models a straggler).
    Applies to tasks that {e start} after the call. Raises
    [Invalid_argument] on non-positive or non-finite factors and on a
    negative site. *)

val now : t -> Time.t
(** Current simulated time. Outside [run] this is the time of the last
    processed event. *)

val task :
  t -> ?deps:handle list -> ?on_complete:(unit -> unit) ->
  ?on_outcome:(outcome -> unit) -> ?attrs:(string * string) list ->
  site:int -> kind:Resource.kind -> label:string -> duration:Time.t -> unit ->
  handle
(** Occupies [kind] at [site] for [duration] once all [deps] have finished.
    [attrs] is free-form attribution (strategy, phase, database) copied onto
    the task's trace entry; it costs nothing when tracing is disabled.
    [on_outcome] runs at completion with the task's {!outcome} — the
    failable-task API. Raises [Invalid_argument] on a negative or
    non-finite duration and on a negative site. *)

val transfer :
  t -> ?deps:handle list -> ?on_complete:(unit -> unit) ->
  ?on_outcome:(outcome -> unit) -> ?attrs:(string * string) list ->
  src:int -> dst:int -> label:string -> duration:Time.t -> unit -> handle
(** A network transfer from [src] to [dst]: occupies [dst]'s incoming link
    for [duration]. A transfer between a site and itself costs nothing (local
    data never crosses the network), degenerates to a fence and can never be
    dropped. *)

val fence :
  t -> ?deps:handle list -> ?on_complete:(unit -> unit) ->
  ?attrs:(string * string) list -> label:string -> unit -> handle
(** Completes as soon as all [deps] have finished, consuming no resource. *)

val delay :
  t -> ?deps:handle list -> ?on_complete:(unit -> unit) ->
  ?attrs:(string * string) list -> label:string -> duration:Time.t -> unit ->
  handle
(** Like {!fence} but finishes [duration] after becoming eligible, without
    occupying any resource. *)

val promise : t -> label:string -> handle
(** A join point with no pre-declared dependencies: stays pending until
    {!resolve} is called, then completes instantly at the current clock.
    Lets a retry chain of unknown length gate downstream tasks — submit the
    dependents against the promise, resolve it from the callback that ends
    the chain. An unresolved promise makes {!run} raise {!Stuck}. *)

val resolve : t -> handle -> unit
(** Completes a {!promise} at the current simulated time. Raises
    [Invalid_argument] if the handle is not a promise or was already
    resolved. *)

val finished : t -> handle -> bool

val finish_time : t -> handle -> Time.t
(** Raises [Invalid_argument] if the task has not finished. *)

val outcome_of : t -> handle -> outcome
(** Raises [Invalid_argument] if the task has not finished. *)

exception Stuck of string list
(** Raised by {!run} when the event queue drains while tasks remain
    unfinished — i.e. the dependency graph has a cycle, a dependency was
    never made eligible, or a {!promise} was never resolved. Each entry, in
    submission order, describes one stuck task: its label and site plus the
    labels and sites
    of the unmet dependencies it is awaiting (or that it is an unresolved
    promise), so the culprit of a deadlock is named, not just the victim. *)

val run : t -> unit
(** Processes events until quiescence. May be called again after submitting
    more tasks; the clock keeps advancing monotonically. *)

type totals = {
  total_busy : Time.t;  (** {!Stats.total_busy} of {!stats} *)
  makespan : Time.t;  (** {!Stats.makespan} of {!stats} *)
}

val totals : t -> totals
(** The two totals of the tasks finished so far, without building
    {!stats}. *)

val stats : t -> Stats.t
(** The statistics of the tasks finished so far, built from the run's
    arrays on each call. *)

val trace : t -> Trace.t
(** The trace of the tasks finished so far, built from the run's arrays on
    each call; empty unless the engine was created with [~trace:true]. *)
