(** Deterministic fault injection for the simulated federation.

    A {!schedule} describes how the federation misbehaves during one run:
    per-site crash/recover windows, per-link loss (drop probability, latency
    inflation and deterministic jitter), and the {e gray} failure kinds —
    per-site slowdown windows (a CPU/disk service-time multiplier while the
    window covers the task's start) and asymmetric one-way link partitions
    (only one direction of a site's traffic is cut, so a request can arrive
    while its verdict is lost, or vice versa). Interpreted by the engine
    through {!judge}, it makes transfers {e into} a crashed site and
    transfers across a lossy link fail at their would-be finish time; CPU
    and disk work is stretched inside slowdown windows and otherwise
    unaffected.

    Everything is deterministic. Crash, slowdown and partition windows are
    explicit data; the per-transfer drop and jitter draws hash the
    schedule's [seed] together with the transfer's destination, label and
    start time, so a decision depends only on the schedule and on {e when
    and what} is transferred — never on evaluation order, host scheduling or
    a hidden global RNG. Two runs with the same schedule and the same task
    timeline fail identically; parallel sweeps stay reproducible point by
    point (the same contract as [Rng.split_ix], see docs/PARALLELISM.md).

    {!random} draws a schedule from a seeded [Msdq_workload.Rng] — the
    chaos-testing and fault-sweep entry point; the gray knobs draw from
    streams disjoint from the binary-fault streams, so enabling them never
    perturbs the crash schedule. *)

open Msdq_simkit

type window = {
  down : Time.t;  (** crash instant (inclusive) *)
  up : Time.t;  (** recovery instant (exclusive); [infinity] = never *)
}

type site_faults = {
  site : int;
  outages : window list;  (** disjoint, in increasing time order *)
}

type link_faults = {
  dst : int;  (** the incoming link of this site *)
  drop : float;  (** probability a transfer across the link is lost *)
  inflate : float;  (** latency multiplier, >= 1.0 *)
  jitter : float;
      (** extra per-transfer latency amplitude, >= 0: each transfer is
          additionally stretched by a deterministic draw from
          [1, 1 + jitter) (see {!jitter_draw}) *)
}

type direction =
  | Inbound  (** transfers {e into} the site are cut *)
  | Outbound  (** transfers {e out of} the site are cut *)

type slowdown = {
  slow_site : int;
  factor : float;  (** CPU/disk service-time multiplier, >= 1.0 *)
  busy : window list;  (** disjoint, in increasing time order *)
}

type partition = {
  part_site : int;
  direction : direction;
  cut : window list;  (** disjoint, in increasing time order *)
}

type schedule = {
  seed : int;  (** decides the per-transfer drop and jitter draws *)
  sites : site_faults list;
  links : link_faults list;
  slowdowns : slowdown list;
  partitions : partition list;
}

val none : schedule
(** The empty schedule: nothing fails. Strategies' legs are static under
    it — plain transfers wired at build time, with no retry machinery in
    the task graph. *)

val is_none : schedule -> bool

val validate : schedule -> unit
(** Raises [Invalid_argument] with a readable message on malformed
    schedules: overlapping or unordered windows (outage, slowdown or
    partition), [up <= down], drop probabilities outside [0,1], inflation
    < 1 or infinite, negative jitter, slowdown factors < 1, negative
    sites. *)

val site_down : schedule -> site:int -> at:Time.t -> bool

val next_up : schedule -> site:int -> at:Time.t -> Time.t option
(** The earliest instant [>= at] at which [site] is up, or [None] if it
    never recovers ([up = infinity] on the covering window). *)

val generation : schedule -> site:int -> at:Time.t -> int
(** How many of [site]'s outage windows have ended by [at]: each recovery
    is a restart that wiped the site's RAM, so caches tag their entries
    with it. *)

val permanently_down : schedule -> site:int -> at:Time.t -> bool
(** The site is down at [at] and never recovers. *)

val failed_sites : schedule -> int list
(** Sites with at least one outage window, sorted. *)

val link_of : schedule -> int -> link_faults option
(** The fault entry for [dst]'s incoming link, if any. *)

val gray_sites : schedule -> int list
(** Sites with at least one slowdown or one-way-partition window, sorted —
    the sites that are degraded without ever being declared down. *)

val slow_factor : schedule -> site:int -> at:Time.t -> float
(** The combined CPU/disk service-time multiplier for work starting at [at]
    on [site]: the product of the factors of every covering slowdown window
    (1.0 when none covers). *)

val one_way_cut : schedule -> src:int option -> dst:int -> at:Time.t -> bool
(** Whether an asymmetric partition cuts a transfer travelling [src -> dst]
    at instant [at]: an [Inbound] partition of [dst] or (when [src] is
    known) an [Outbound] partition of [src]. *)

val drop_draw : schedule -> dst:int -> label:string -> start:Time.t -> p:float -> bool
(** The deterministic per-transfer loss draw: a pure hash of [(seed, dst,
    label, start)] against probability [p]. Exposed for tests. *)

val jitter_draw : schedule -> dst:int -> label:string -> start:Time.t -> float
(** The deterministic per-transfer jitter multiplier in
    [1, 1 + jitter_of_link): an independently-salted pure hash of the same
    transfer identity as {!drop_draw} (and with the same order-independence
    contract). 1.0 when the destination's link has no jitter. *)

val stretch :
  schedule -> dst:int -> label:string -> start:Time.t -> Time.t -> Time.t
(** A transfer's duration over [dst]'s incoming link: stretched by the
    link's inflation factor and by {!jitter_draw}. The part of {!link_fate}
    that never drops anything. *)

val link_fate :
  schedule ->
  ?src:int ->
  dst:int ->
  label:string ->
  start:Time.t ->
  duration:Time.t ->
  unit ->
  Time.t * string option
(** The single shared interpretation of a link transfer, used by {!judge}
    and by host-side fate precomputation: the stretched duration (inflation
    x jitter) and [Some reason] when the transfer is doomed — destination
    down at the stretched finish (["site N down"]), a one-way partition
    cutting the direction of travel (["one-way partition into N"] checked at
    the finish, ["one-way partition out of N"] checked at the start), or the
    loss draw firing (["link to N lossy"]). *)

val slowdown_judge : schedule -> Engine.judge
(** [Cpu] and [Disk] tasks stretched by {!slow_factor} at their start
    time; [Link] tasks left alone. Nothing is ever dropped. *)

val judge : schedule -> Engine.judge
(** The engine interpretation. [Link] tasks go through {!link_fate}; [Cpu]
    and [Disk] tasks are stretched by {!slow_factor} at their start time and
    never dropped. *)

val install : schedule -> Engine.t -> unit
(** [Engine.set_judge] with {!judge} — a no-op for {!none}. *)

val flap_train :
  from:Time.t -> until:Time.t -> period:Time.t -> duty:float -> window list
(** A rapid down/up train: one window of length [duty x period] at the start
    of each period, from [from] until [until]. [duty] must be in (0, 1) and
    [period] positive; the result is valid as an [outages], [busy] or [cut]
    list. Raises [Invalid_argument] on malformed parameters. *)

val random :
  rng:Msdq_workload.Rng.t ->
  sites:int list ->
  availability:float ->
  horizon:Time.t ->
  ?drop:float ->
  ?inflate:float ->
  ?jitter:float ->
  ?slow:float ->
  ?flap:Time.t ->
  ?oneway:float ->
  unit ->
  schedule
(** A random recoverable schedule: each listed site is down for an expected
    fraction [1 - availability] of [0, horizon], as alternating up/down
    periods drawn from per-site streams ([Rng.split_ix] on the site's rank,
    so one site's windows never depend on another's draws). Every window
    recovers within the horizon. [drop]/[inflate]/[jitter] (default 0 / 1 /
    0) apply to every listed site's incoming link. [availability] must be in
    (0, 1]. Availability 1 yields no outage windows at all, so
    [~availability:1.0] with a non-zero [drop] builds a {e lossy-link-only}
    schedule: no site ever crashes, but messages are still lost — the chaos
    point that exercises retransmission and failover without any crash
    recovery. The schedule's drop seed is drawn from [rng].

    The gray knobs (all drawn from streams disjoint from the outage
    streams, so enabling them never changes the binary-fault plan):
    [slow > 1] gives every site slowdown windows with that factor;
    [flap] replaces the outage generator with {!flap_train} at the given
    period (duty [1 - availability], per-site phase shift); [oneway] is the
    probability each site additionally gets a one-way partition (direction
    drawn 50/50). Slowdown and partition windows cover an expected
    [1 - availability] of the horizon (one half when availability is 1). *)

val pp : Format.formatter -> schedule -> unit
