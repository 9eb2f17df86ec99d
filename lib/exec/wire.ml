open Msdq_odb
open Msdq_fed

let projected_extent_bytes (c : Cost.t) involved gs ~db_name ~db =
  List.fold_left
    (fun acc gcls ->
      match Global_schema.constituent_of gs ~gcls ~db:db_name with
      | None -> acc
      | Some local_cls ->
        let width = Involved.local_projection_width involved gs ~db:db_name ~gcls in
        let n = Database.extent_size db local_cls in
        acc + (n * (c.Cost.s_loid + (width * c.Cost.s_a))))
    0 (Involved.classes involved)

let localized_read_bytes (c : Cost.t) involved gs ~db_name ~touched =
  List.fold_left
    (fun acc (gcls, n) ->
      let width = Involved.local_projection_width involved gs ~db:db_name ~gcls in
      acc + (n * (c.Cost.s_loid + (width * c.Cost.s_a))))
    0 touched

let pred_bytes (c : Cost.t) (pred : Predicate.t) =
  (List.length pred.Predicate.path * c.Cost.s_a) + c.Cost.s_a

let local_row_bytes (c : Cost.t) ~n_targets (row : Local_result.row) =
  c.Cost.s_goid + c.Cost.s_loid
  + (n_targets * c.Cost.s_a)
  + List.length row.Local_result.unsolved * (c.Cost.s_loid + c.Cost.s_a)

let results_bytes c ~n_targets (res : Local_result.t) =
  List.fold_left
    (fun acc row -> acc + local_row_bytes c ~n_targets row)
    0 res.Local_result.rows

let request_bytes (c : Cost.t) (r : Checks.request) =
  (2 * c.Cost.s_loid) + pred_bytes c r.Checks.pred

let requests_bytes c reqs =
  List.fold_left (fun acc r -> acc + request_bytes c r) 0 reqs

let verdict_bytes (c : Cost.t) = c.Cost.s_loid + 2

let check_read_bytes (c : Cost.t) reqs =
  (* Each assistant is fetched by LOid: a random access reading at least one
     page per object on the suffix path. *)
  List.fold_left
    (fun acc (r : Checks.request) ->
      acc
      + max c.Cost.s_page
          (c.Cost.s_loid + (List.length r.Checks.pred.Predicate.path * c.Cost.s_a)))
    0 reqs
