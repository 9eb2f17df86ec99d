open Msdq_odb
open Msdq_fed
open Msdq_query
module Tracer = Msdq_obs.Tracer

type outcome = {
  answer : Answer.t;
  promoted : int;
  eliminated : int;
  conflicts : int;
  work : Meter.snapshot;
  goid_lookups : int;
}

(* Combines two truth values about the same fact: definite beats Unknown.
   Contradicting definite values resolve to False and count as a conflict on
   single-valued federations (where they indicate inconsistent data); under
   multi-valued integration a real-world entity legitimately carries all its
   copies' values, so an atom satisfied by any copy is satisfied by the
   entity (existential semantics) and True wins. *)
let combine ~multi_valued ~conflicts a b =
  match (a, b) with
  | Truth.Unknown, t | t, Truth.Unknown -> t
  | Truth.True, Truth.True -> Truth.True
  | Truth.False, Truth.False -> Truth.False
  | Truth.False, Truth.True | Truth.True, Truth.False ->
    if multi_valued then Truth.True
    else begin
      incr conflicts;
      Truth.False
    end

module Int_table = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (k : int) = Hashtbl.hash k
end)

(* Database names, numbered on first sight. The rows and verdicts of one
   database carry one string, so the name looked up last is compared by
   pointer before the table is probed. *)
type numbering = {
  ids : (string, int) Hashtbl.t;
  mutable last : string;
  mutable last_id : int;
}

(* [name]'s number, or -1 if it has none. *)
let find_number n name =
  if name != n.last then begin
    n.last <- name;
    n.last_id <-
      (match Hashtbl.find_opt n.ids name with Some id -> id | None -> -1)
  end;
  n.last_id

let number n name =
  match find_number n name with
  | -1 ->
    let id = Hashtbl.length n.ids in
    Hashtbl.add n.ids name id;
    n.last_id <- id;
    id
  | id -> id

(* Whether one of the rows [lo .. hi - 1] has no unsolved atom. *)
let rec locally_solved unsolved lo hi =
  lo < hi
  && (match unsolved.(lo) with [] -> true | _ :: _ -> locally_solved unsolved (lo + 1) hi)

(* Whether one of an entity's isomers lies in a result database that
   returned no row of it ([stamp.(id) <> g]). [dbs] are the isomers'
   Goid_table database numbers; [result_of] maps them to result numbers,
   -1 for the databases that returned no result. *)
let rec absent_isomer ~result_of ~stamp g = function
  | [] -> false
  | i :: dbs ->
    let id = result_of.(i) in
    (id >= 0 && stamp.(id) <> g) || absent_isomer ~result_of ~stamp g dbs

(* Target [i]'s first non-null value in the rows [k .. hi - 1]; each row
   looked at costs one access. *)
let rec first_value ~accesses (values : Value.t option array array) i k hi =
  if k = hi then Value.Null
  else begin
    incr accesses;
    match values.(k).(i) with
    | Some v when not (Value.is_null v) -> v
    | Some _ | None -> first_value ~accesses values i (k + 1) hi
  end

let run ?(multi_valued = false) ?(tracer = Tracer.disabled) fed
    (analysis : Analysis.t) ~results ~verdicts =
  Tracer.with_span tracer ~cat:"integrate"
    ~args:[ ("verdicts", string_of_int (List.length verdicts)) ]
    "certify.run"
  @@ fun () ->
  let table = Federation.goids fed in
  let meter = Meter.create () in
  let accesses = ref 0 in
  let conflicts = ref 0 in
  let n_atoms = List.length analysis.Analysis.atoms in
  let n_targets = List.length analysis.Analysis.targets in
  let where =
    Cond.index
      (Array.of_list
         (List.map (fun info -> info.Analysis.pred) analysis.Analysis.atoms))
      analysis.Analysis.query.Ast.where
  in
  (* The result databases take the numbers 0 .. [n_result_dbs - 1]. *)
  let dbs = { ids = Hashtbl.create 8; last = ""; last_id = -1 } in
  List.iter (fun (r : Local_result.t) -> ignore (number dbs r.Local_result.db)) results;
  let n_result_dbs = Hashtbl.length dbs.ids in
  let result_of =
    Array.of_list
      (List.map
         (fun name ->
           let id = find_number dbs name in
           if id < n_result_dbs then id else -1)
         (Goid_table.db_names table))
  in
  (* Group the rows per entity with a stable counting sort over the dense
     GOids: [bound.(g)] ends up as the end of entity [g]'s block of rows,
     which keep their result order. That order decides the conflict count
     and which projected value wins. A row's fields go to one array each:
     their initial values are constants, where a row would be a young
     value that makes [Array.make] force a minor collection. *)
  let n_goids = Goid_table.entity_count table in
  let bound = Array.make (n_goids + 1) 0 in
  List.iter
    (fun (res : Local_result.t) ->
      List.iter
        (fun (row : Local_result.row) ->
          let g = Oid.Goid.to_int row.Local_result.goid in
          if g < 0 || g >= n_goids then
            invalid_arg
              (Printf.sprintf "Certify.run: row of unregistered entity %s"
                 (Oid.Goid.to_string row.Local_result.goid));
          bound.(g + 1) <- bound.(g + 1) + 1)
        res.Local_result.rows)
    results;
  for g = 1 to n_goids do
    bound.(g) <- bound.(g) + bound.(g - 1)
  done;
  let n_rows = bound.(n_goids) in
  let truths = Array.make n_rows [||]
  and unsolved = Array.make n_rows []
  and values = Array.make n_rows [||]
  and row_db = Array.make n_rows 0 in
  List.iter
    (fun (res : Local_result.t) ->
      List.iter
        (fun (row : Local_result.row) ->
          let g = Oid.Goid.to_int row.Local_result.goid in
          let k = bound.(g) in
          bound.(g) <- k + 1;
          truths.(k) <- row.Local_result.truths;
          unsolved.(k) <- row.Local_result.unsolved;
          values.(k) <- row.Local_result.values;
          row_db.(k) <- number dbs row.Local_result.db)
        res.Local_result.rows)
    results;
  (* Index the verdicts by one int, (LOid * atoms + atom) * databases +
     database: every digit but the LOid is below its radix, so distinct
     keys never collide. Several assistants can answer about the same
     item. *)
  List.iter
    (fun (v : Checks.verdict) ->
      if v.Checks.atom < 0 || v.Checks.atom >= n_atoms then
        invalid_arg
          (Printf.sprintf "Certify.run: verdict on atom %d of a %d-atom query"
             v.Checks.atom n_atoms);
      ignore (number dbs v.Checks.origin_db))
    verdicts;
  let n_dbs = Hashtbl.length dbs.ids in
  let key ~db ~loid ~atom = (((Oid.Loid.to_int loid * n_atoms) + atom) * n_dbs) + db in
  let index = Int_table.create (List.length verdicts) in
  List.iter
    (fun (v : Checks.verdict) ->
      incr accesses;
      let k =
        key ~db:(find_number dbs v.Checks.origin_db) ~loid:v.Checks.item
          ~atom:v.Checks.atom
      in
      match Int_table.find_opt index k with
      | Some t ->
        Int_table.replace index k (combine ~multi_valued ~conflicts t v.Checks.truth)
      | None -> Int_table.add index k v.Checks.truth)
    verdicts;
  accesses := !accesses + n_rows;
  let promoted = ref 0 and eliminated = ref 0 in
  let stamp = Array.make n_dbs (-1) in
  let merged = Array.make n_atoms Truth.Unknown in
  (* Applies the verdicts on one row's unsolved entries to [merged]; [db]
     is the row's database number. *)
  let rec apply_verdicts db = function
    | [] -> ()
    | (u : Local_result.unsolved) :: rest ->
      incr accesses;
      let atom = u.Local_result.atom in
      (if atom >= 0 && atom < n_atoms then
         let loid = Dbobject.loid u.Local_result.item in
         match Int_table.find_opt index (key ~db ~loid ~atom) with
         | Some t -> merged.(atom) <- combine ~multi_valued ~conflicts merged.(atom) t
         | None -> ());
      apply_verdicts db rest
  in
  let answer_rows = ref [] in
  (* Entities in descending GOid order, so the answer's rows come out
     ascending. *)
  for g = n_goids - 1 downto 0 do
    let lo = if g = 0 then 0 else bound.(g - 1) and hi = bound.(g) in
    if lo < hi then begin
      let goid = Oid.Goid.of_int g in
      for k = lo to hi - 1 do
        stamp.(row_db.(k)) <- g
      done;
      (* Elimination through an absent isomer: if a database that hosts the
         root class holds an isomeric object of this entity but did not
         return it, its local predicates definitely failed there. *)
      if absent_isomer ~result_of ~stamp g (Goid_table.local_dbs table ~meter goid)
      then incr eliminated
      else begin
        (* Merge per-atom truths across databases, then apply check verdicts
           to the still-unsolved entries. *)
        Array.fill merged 0 n_atoms Truth.Unknown;
        for k = lo to hi - 1 do
          let truths = truths.(k) in
          for i = 0 to Array.length truths - 1 do
            merged.(i) <- combine ~multi_valued ~conflicts merged.(i) truths.(i)
          done;
          accesses := !accesses + Array.length truths
        done;
        for k = lo to hi - 1 do
          apply_verdicts row_db.(k) unsolved.(k)
        done;
        let status =
          match Cond.eval_indexed merged where with
          | Truth.False -> None
          | Truth.True ->
            if not (locally_solved unsolved lo hi) then incr promoted;
            Some Answer.Certain
          | Truth.Unknown -> Some Answer.Maybe
        in
        match status with
        | None -> incr eliminated
        | Some status ->
          (* Merge target projections: first locally-derived value wins. *)
          let row_values = ref [] in
          for i = n_targets - 1 downto 0 do
            row_values := first_value ~accesses values i lo hi :: !row_values
          done;
          answer_rows := { Answer.goid; values = !row_values; status } :: !answer_rows
      end
    end
  done;
  Meter.add_accesses meter !accesses;
  let answer =
    Answer.make ~targets:(List.map fst analysis.Analysis.targets) !answer_rows
  in
  {
    answer;
    promoted = !promoted;
    eliminated = !eliminated;
    conflicts = !conflicts;
    work = Meter.read meter;
    goid_lookups = (Meter.read meter).Meter.goid_lookups;
  }
