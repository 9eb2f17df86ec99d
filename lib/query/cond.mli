(** Predicate trees.

    The paper's algorithms assume predicates combined in conjunctive form;
    disjunction and negation are its announced future work. This module
    supports the full tree (the executors accept conjunctive queries for the
    paper's algorithms and general trees for the extension), with
    three-valued evaluation parameterized by an atom evaluator. *)

open Msdq_odb

type t =
  | Atom of Predicate.t
  | And of t list
  | Or of t list
  | Not of t

val tt : t
(** The empty conjunction: always true. *)

val conj : t list -> t
(** Flattens nested conjunctions. *)

val atoms : t -> Predicate.t list
(** All atoms, left to right, duplicates preserved. *)

val conjuncts : t -> Predicate.t list option
(** [Some atoms] when the tree is a pure conjunction of atoms (the paper's
    query form), [None] otherwise. *)

val is_conjunctive : t -> bool

val eval : (Predicate.t -> Truth.t) -> t -> Truth.t
(** Kleene evaluation with the given atom oracle. *)

type indexed
(** A tree whose atoms are positions in an atom array, for evaluating one
    condition on many objects without comparing predicates per object. *)

val index : Predicate.t array -> t -> indexed
(** Each atom becomes the position of the first equal predicate in the
    array; an atom absent from it is always [Unknown]. *)

val eval_indexed : Truth.t array -> indexed -> Truth.t
(** [eval_indexed truths (index atoms t)] is [eval oracle t] where
    [oracle p] is [truths.(i)] for the first [i] with
    [Predicate.equal atoms.(i) p], and [Unknown] when there is none. *)

val map_atoms : (Predicate.t -> Predicate.t) -> t -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val equal : t -> t -> bool
