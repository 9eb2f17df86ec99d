(** One section of the bench result document ([BENCH_*.json]), declared
    once: its JSON key, the schema version that made it required, a
    structural check that also enforces the section's win condition, the
    same-run bars only the bench gate holds, and the comparison against a
    baseline. {!Bench.sections} lists them all; typed [to_json] and [pp]
    stay plain functions in each sweep module. *)

module Json = Msdq_obs.Json

(** {1 Field reader} *)

type cursor
(** A JSON value and its path from the document root, e.g.
    [gray_sweep.points[3]]. *)

exception Invalid of string
(** Raised by the readers and section checks; the message starts with the
    offending field's path. *)

val root : Json.t -> cursor

val invalid : cursor -> ('a, unit, string, 'b) format4 -> 'a
(** Raises {!Invalid} with the cursor's path in front of the message. *)

val field : cursor -> string -> cursor
(** The required member [key] of an object. *)

val elements : ?nonempty:bool -> cursor -> cursor list
(** The elements of an array; [nonempty] rejects an empty one. *)

type range = Any | Nonneg | Positive | Fraction  (** [Fraction]: [[0, 1]] *)

val str : cursor -> string -> string
val int : ?min:int -> cursor -> string -> int

val num : ?range:range -> cursor -> string -> float
(** An integer or float member inside [range] (default [Any]); NaN is
    outside every other range. *)

val floats : ?range:range -> ?len:int -> cursor -> string -> float list
(** An array member of exactly [len] numbers inside [range]; a string or
    [null] element is rejected, not skipped. *)

val mean : float list -> float
(** [0.] for the empty list. *)

(** {1 Sections} *)

type verdict = Pass of string | Skip of string | Fail of string
(** One line of the bench gate's report. *)

type metric =
  | Time of string * float  (** fails above [(1 + tolerance) x] baseline *)
  | Rate of string * float  (** fails below [baseline / (1 + tolerance)] *)
  | Share of string * float  (** fails when it drops by over [tolerance] *)

type t = {
  key : string;  (** the document member, e.g. [gray_sweep] *)
  since : int;  (** the [msdq-bench/N] that made it required *)
  until : int option;
      (** the last [msdq-bench/N] that requires it, for a retired section *)
  check : cursor -> unit;  (** structure and win condition; raises {!Invalid} *)
  bars : (string * float) list;
      (** [(dotted path, minimum)] same-run ratios the gate holds on the
          fresh document only *)
  guard : string list;
      (** integer members (seed, sample counts) both documents must agree
          on, or the comparison is skipped with the reason *)
  metrics : (cursor -> metric list) option;
      (** what is compared against the baseline, matched by name; [None]
          for sections the gate never compares *)
}

val bars : t -> Json.t -> verdict list
(** Holds the bars on a validated fresh document. *)

val compare : tolerance:float -> t -> base:Json.t -> fresh:Json.t -> verdict list
(** Compares the metrics of two validated documents; a section only one
    of them carries is skipped. *)
