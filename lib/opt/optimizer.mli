(** Adaptive per-query strategy selection (the [AUTO] strategy).

    The paper's cost model predicts CA vs BL vs PL cost from catalog
    statistics ({!Planner.profile} + the Table-1 simulation); this module
    closes ROADMAP item 2's loop by {e using} those predictions, blended
    with what the telemetry {!Msdq_telemetry.Store} actually observed in
    earlier runs:

    - every candidate's model prediction is normalized into a {e ratio}
      against the candidates' mean (predictions and observations live on
      different clocks — a serve-path latency includes queueing the solo
      model never charges — so only relative standings are comparable);
    - a store observation for a strategy contributes its own latency
      ratio, weighted by [beta = w / (w + prior)] where [w] is the
      store's accumulated observation weight: an empty store defers
      entirely to the model, a well-fed one mostly to the evidence;
    - the strategy with the smallest blended score wins; ties resolve in
      {!candidates} order (CA first).

    Degraded-mode fallback: when the caller reports sites whose recovery
    breakers ({!Msdq_exec.Recovery.Breaker}) are open and the winner is a
    localized strategy whose assistant checks could target one of them,
    the decision switches to CA — CA's extent shipments are critical
    transfers that wait out outages rather than dropping, so it degrades
    gracefully where PL's check round trips would be abandoned wholesale.

    Selection never changes semantics: the decision only picks which
    strategy executes; answers stay byte-identical to the chosen fixed
    strategy's answers (qcheck-pinned in [test/test_opt.ml]). *)

open Msdq_fed
open Msdq_query
open Msdq_exec

val candidates : Strategy.t list
(** [CA; BL; PL] — the strategies AUTO arbitrates between. *)

type score = {
  strategy : Strategy.t;
  predicted_us : float;  (** model prediction under the objective *)
  pred_ratio : float;  (** prediction / mean over candidates *)
  observed : (float * float) option;
      (** [(mean observed latency us, weight)] from the store, if any *)
  blended : float;  (** the ranking key: smaller is better *)
}

(** Why a localized preference fell back to CA. *)
type cause =
  | Breaker_open  (** a check site's breaker is open ([degraded]) *)
  | Gray_site  (** a check site is up but gray ([gray]) *)

type decision = {
  preferred : Strategy.t;  (** unconstrained argmin of the blended score *)
  chosen : Strategy.t;  (** after degraded-site fallback *)
  switched : bool;  (** [chosen <> preferred] *)
  scores : score list;  (** in {!candidates} order *)
  predictions : Planner.prediction list;  (** raw model predictions *)
  reason : string option;  (** why the fallback switched, when it did *)
  cause : cause option;  (** the fallback's cause, when it switched *)
}

val check_sites : Federation.t -> Analysis.t -> int list
(** Sites a localized execution of this query could target with assistant
    checks: every database holding a constituent of an involved class, in
    federation order. *)

val decide :
  ?cost:Cost.t ->
  ?predictions:Planner.prediction list ->
  ?store:Msdq_telemetry.Store.t ->
  ?objective:Planner.objective ->
  ?degraded:int list ->
  ?gray:int list ->
  ?overload:float ->
  Federation.t ->
  Analysis.t ->
  decision
(** Pick a strategy for one query. [objective] defaults to
    [Response_time] (a served query's latency is its response time);
    [degraded] lists sites whose breakers are currently open. [gray] lists
    sites detected as gray — up and answering, but persistently slower than
    their observed baseline (the serve engine feeds its slow-leg EWMA
    here): a localized preference whose check sites intersect [gray]
    falls back to CA exactly like the degraded fallback, with its own
    reason ("check site(s) N gray (slow but up): falling back to CA");
    sites already covered by [degraded] keep the breaker reason. [overload]
    (default 0) is a backpressure score — the serve engine feeds queue
    depth and its deadline-miss EWMA here — added to each candidate's
    blended score as [overload * pred_ratio], so rising pressure shifts
    the argmin toward the cheapest plan while zero leaves the ranking
    untouched; it must be non-negative and finite or the call raises
    [Invalid_argument]. [predictions] are [Planner.predict ?cost
    ~strategies:candidates fed analysis], made once by a caller that
    decides the same query many times; without them [decide] makes them.
    Deterministic: same federation, analysis, store contents, degraded set
    and overload — same decision. *)

val pp_decision : Format.formatter -> decision -> unit
