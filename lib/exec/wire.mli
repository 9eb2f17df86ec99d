(** Wire and storage sizes of everything the strategies ship or read,
    derived from the size constants of Table 1. Objects are projected on
    their LOid and the attributes the query involves (the optimization the
    paper applies in step CA_C1). *)

open Msdq_odb
open Msdq_fed

val projected_extent_bytes :
  Cost.t -> Involved.t -> Global_schema.t -> db_name:string -> db:Database.t -> int
(** Bytes of the query-relevant projection of all involved local extents of
    one database: per involved global class with a constituent here,
    [extent size x (S_LOid + width x S_a)]. This is both what CA ships and
    what a localized strategy reads from disk. *)

val localized_read_bytes :
  Cost.t -> Involved.t -> Global_schema.t -> db_name:string ->
  touched:(string * int) list -> int
(** Disk bytes a localized evaluation reads: the root extent plus only the
    {e touched} branch objects ({!Local_eval.touched}), each projected on the involved
    attributes. *)

val local_row_bytes : Cost.t -> n_targets:int -> Local_result.row -> int
(** One local-result row: GOid + LOid + projected targets + one (LOid,
    predicate) annotation per unsolved entry. *)

val results_bytes : Cost.t -> n_targets:int -> Local_result.t -> int

val request_bytes : Cost.t -> Checks.request -> int
(** Assistant LOid + item LOid + the suffix predicate (one attribute-sized
    cell per path step plus the operand). *)

val requests_bytes : Cost.t -> Checks.request list -> int

val verdict_bytes : Cost.t -> int
(** One check verdict: item LOid + atom index + truth. *)

val check_read_bytes : Cost.t -> Checks.request list -> int
(** Disk bytes to fetch the assistant objects of a request batch: one
    random-access page per request at minimum (assistants are fetched by
    LOid, not scanned). *)
