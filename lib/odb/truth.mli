(** Three-valued logic (Kleene), the semantics of predicates over missing
    data: a predicate touching a missing attribute or a null value is
    [Unknown], and objects whose predicate conjunction is [Unknown] become
    the paper's {e maybe results}. *)

type t = True | False | Unknown

val conj : t -> t -> t

val disj : t -> t -> t

val neg : t -> t

val conj_all : t list -> t
(** Kleene conjunction of a list; [True] for the empty list. *)

val disj_all : t list -> t
(** Kleene disjunction of a list; [False] for the empty list. *)

val of_bool : bool -> t

(** {2 Truth columns}

    A truth column holds one byte per row: [False] is 0, [Unknown] 1 and
    [True] 2, so Kleene conjunction is the minimum of two codes,
    disjunction the maximum and negation [2 - code]. *)

val code : t -> char

val of_code : char -> t
(** The inverse of {!code}; any byte above 2 reads as [True]. *)

val equal : t -> t -> bool

val to_string : t -> string

val pp : Format.formatter -> t -> unit
