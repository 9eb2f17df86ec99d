(** Synthetic concrete federations.

    Generates component databases around a composition chain of global
    classes [K0 -> K1 -> ... -> K(n-1)] (each class holds a complex
    attribute [next] to its successor), with controlled:

    {ul
    {- schema heterogeneity — a hosted constituent drops each predicate
       attribute independently, creating missing attributes;}
    {- null values — present attributes are nulled per object with a
       configurable probability;}
    {- object isomerism — entities get copies in several databases; shared
       attribute values are drawn once per entity, so isomeric objects are
       consistent by default and integration is well-defined (the
       [p_divergent] knob injects disagreeing copies for the multi-valued
       extension);}
    {- reference structure — an object's [next] reference points to the
       local copy of its entity's successor when one exists, else null.}}

    Every entity carries a never-null integer [key], so isomerism
    identification reconstructs the generator's entity structure exactly.

    The module also generates random conjunctive or disjunctive queries over
    the chain, for property-based testing of the execution strategies. *)

open Msdq_fed
open Msdq_query

type config = {
  seed : int;
  n_db : int;
  n_classes : int;  (** chain length, >= 1 *)
  n_entities : int;  (** real-world entities per class *)
  n_pred_attrs : int;  (** integer predicate attributes per class *)
  domain : int;  (** predicate values drawn from [0, domain) *)
  p_copy : float;  (** probability of an extra copy per non-home database *)
  p_host : float;  (** probability a database hosts a class *)
  p_attr_present : float;  (** probability a hosted class keeps an attribute *)
  p_null : float;  (** probability a present value is null *)
  p_divergent : float;
      (** probability a copy records its own value for a predicate attribute
          instead of the entity's shared value — produces the disagreeing
          isomeric values that multi-valued integration (extension) turns
          into value sets. Default 0: fully consistent federations. *)
}

val default : config
(** A small federation suitable for tests: 3 databases, a 3-class chain,
    24 entities per class. *)

val dense : config
(** [default] where every database hosts every class, a quarter of the
    attributes are missing and 12% of present values are null: local
    evaluation leaves real maybe sets, so the strategies send checks, ship
    extents and certify. The sweeps, bench studies and goldens build on it
    with their own seed and size. *)

val generate : config -> Federation.t
(** Deterministic in [config.seed]. *)

val random_query : Rng.t -> config -> disjunctive:bool -> Ast.t
(** A query over the generated schema: 1–3 predicates on random chain
    depths, one target on the root. With [disjunctive], the predicates are
    combined with a random and/or/not tree instead of a conjunction. *)

val case :
  ?disjunctive:bool ->
  ?accept:(Federation.t -> Analysis.t -> bool) ->
  config ->
  int ->
  (Federation.t * Analysis.t) option
(** [case cfg seed] is a federation and a query that analyzes against its
    global schema: draw [a], for [a] from 0 to 20, generates
    [{ cfg with seed = seed * 37 + a }] and a {!random_query} from rng
    seed [seed + a * 1013], and the first draw whose query analyzes and
    satisfies [accept] (default: any) wins. A random path may name an
    attribute no constituent kept, hence the retries. [None] when no draw
    qualifies. *)
