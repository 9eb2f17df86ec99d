open Msdq_odb

type status = Certain | Maybe

type row = { goid : Oid.Goid.t; values : Value.t list; status : status }

type reason =
  | Fault of string
  | Deadline of { elapsed_us : float; budget_us : float }

let reason_to_string = function
  | Fault why -> why
  | Deadline { elapsed_us; budget_us } ->
      Printf.sprintf
        "deadline exceeded: checks abandoned at %.0f us of a %.0f us budget"
        elapsed_us budget_us

type t = {
  targets : Path.t list;
  rows : row list;  (* ascending GOid *)
  degraded : Oid.Goid.Set.t;
  reasons : reason Oid.Goid.Map.t; (* degraded provenance, per entity *)
  cached : Oid.Goid.Set.t; (* certified via cache-served verdicts *)
}

let by_goid a b = Oid.Goid.compare a.goid b.goid

let rec ascending = function
  | a :: (b :: _ as rest) -> by_goid a b < 0 && ascending rest
  | [ _ ] | [] -> true

let rec check_unique = function
  | a :: (b :: _ as rest) ->
    if by_goid a b = 0 then
      invalid_arg
        (Printf.sprintf "Answer.make: duplicate goid %s"
           (Oid.Goid.to_string a.goid));
    check_unique rest
  | [ _ ] | [] -> ()

(* Executors emit rows in GOid order: one pass checks it, and only rows out
   of order are sorted. *)
let make ~targets rows =
  let rows =
    if ascending rows then rows
    else begin
      let sorted = List.sort by_goid rows in
      check_unique sorted;
      sorted
    end
  in
  { targets; rows; degraded = Oid.Goid.Set.empty;
    reasons = Oid.Goid.Map.empty; cached = Oid.Goid.Set.empty }

let degraded t = t.degraded
let degraded_reason t goid = Oid.Goid.Map.find_opt goid t.reasons

let annotate_degraded t ~reasons =
  let reasons =
    List.fold_left
      (fun acc (g, why) ->
        if Oid.Goid.Set.mem g t.degraded && not (Oid.Goid.Map.mem g acc) then
          Oid.Goid.Map.add g why acc
        else acc)
      t.reasons reasons
  in
  { t with reasons }

(* The listed GOids the answer holds. *)
let present t goids =
  List.fold_left
    (fun acc r ->
      if Oid.Goid.Set.mem r.goid goids then Oid.Goid.Set.add r.goid acc else acc)
    Oid.Goid.Set.empty t.rows

let demote t ~goids =
  let rows =
    List.map
      (fun r ->
        if r.status = Certain && Oid.Goid.Set.mem r.goid goids then
          { r with status = Maybe }
        else r)
      t.rows
  in
  { t with rows; degraded = Oid.Goid.Set.union t.degraded (present t goids) }

let cached t = t.cached

let mark_cached t ~goids =
  { t with cached = Oid.Goid.Set.union t.cached (present t goids) }

let targets t = t.targets
let rows t = t.rows
let certain t = List.filter (fun r -> r.status = Certain) t.rows
let maybe t = List.filter (fun r -> r.status = Maybe) t.rows
let size t = List.length t.rows
let find t goid = List.find_opt (fun r -> Oid.Goid.equal r.goid goid) t.rows
let status_of t goid = Option.map (fun r -> r.status) (find t goid)

let goids t status =
  List.fold_left
    (fun acc r -> if r.status = status then Oid.Goid.Set.add r.goid acc else acc)
    Oid.Goid.Set.empty t.rows

let same_statuses a b =
  Oid.Goid.Set.equal (goids a Certain) (goids b Certain)
  && Oid.Goid.Set.equal (goids a Maybe) (goids b Maybe)

let subsumes ~strong ~weak =
  let strong_all = Oid.Goid.Set.union (goids strong Certain) (goids strong Maybe) in
  let weak_all = Oid.Goid.Set.union (goids weak Certain) (goids weak Maybe) in
  (* strong decides at least as much: certain(weak) <= certain(strong) *)
  Oid.Goid.Set.subset (goids weak Certain) (goids strong Certain)
  (* and strong never resurrects an object weak eliminated, nor loses one
     weak kept *)
  && Oid.Goid.Set.subset strong_all weak_all

let equal_status (a : status) (b : status) = a = b
let status_to_string = function Certain -> "certain" | Maybe -> "maybe"

let pp_row degraded cached ppf r =
  Format.fprintf ppf "%a [%s%s%s]: %s" Oid.Goid.pp r.goid
    (status_to_string r.status)
    (if Oid.Goid.Set.mem r.goid degraded then ", degraded" else "")
    (if Oid.Goid.Set.mem r.goid cached then ", cached" else "")
    (String.concat ", " (List.map Value.to_string r.values))

let pp ppf t =
  let certain_rows = certain t and maybe_rows = maybe t in
  let pp_row = pp_row t.degraded t.cached in
  Format.fprintf ppf "@[<v>certain results (%d):@," (List.length certain_rows);
  List.iter (fun r -> Format.fprintf ppf "  %a@," pp_row r) certain_rows;
  Format.fprintf ppf "maybe results (%d):@," (List.length maybe_rows);
  List.iter (fun r -> Format.fprintf ppf "  %a@," pp_row r) maybe_rows;
  Format.fprintf ppf "@]"
