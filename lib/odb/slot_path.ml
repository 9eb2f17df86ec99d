(* A path resolved to attribute slots once per query, then walked per object
   with [Dbobject.field] and LOid dereferences — what [Predicate.fetch] does
   with two string-hashed probes ([Schema.attr_index]) per step.

   Each step caches the class of the first object it meets and that class's
   slot, and re-resolves by name on an object of another class. The caches
   are a guess, never a precondition: answers, blocks, meter charges and
   exceptions equal [Predicate.fetch]'s for any object. *)

type step = {
  name : string;
  suffix : Path.t;  (* this step's attribute and the rest of the path *)
  last : bool;
  mutable cls : string option;  (* the class [slot] was resolved for *)
  mutable slot : int;  (* field index of [name] in [cls]; -1 = undefined *)
}

type t = { db : Database.t; steps : step array }

let resolve db path =
  let rec go = function
    | [] -> []
    | name :: rest as suffix ->
      { name; suffix; last = rest = []; cls = None; slot = -1 } :: go rest
  in
  { db; steps = Array.of_list (go path) }

(* The slot of [st]'s attribute in [obj]'s class. *)
let slot_for t st obj =
  let cls = Dbobject.cls obj in
  match st.cls with
  | Some c when c == cls || String.equal c cls -> st.slot
  | Some _ | None ->
    let slot =
      match Schema.attr_index (Database.schema t.db) ~cls ~attr:st.name with
      | Some i -> i
      | None -> -1
    in
    st.cls <- Some cls;
    st.slot <- slot;
    slot

let tick meter = match meter with Some m -> Meter.add_accesses m 1 | None -> ()

let rec walk meter t k obj =
  let st = Array.unsafe_get t.steps k in
  tick meter;
  let slot = slot_for t st obj in
  if slot < 0 then
    Predicate.Missing
      { obj; rest = st.suffix; cause = Predicate.Missing_attribute }
  else
    match Dbobject.field obj slot with
    | Value.Null ->
      Predicate.Missing { obj; rest = st.suffix; cause = Predicate.Null_value }
    | v when st.last -> Predicate.Found v
    | v -> (
      match Database.deref t.db v with
      | Some next -> walk meter t (k + 1) next
      | None ->
        raise
          (Value.Type_error
             (Printf.sprintf "path %s traverses primitive attribute %s of %s"
                (Path.to_string st.suffix) st.name (Dbobject.cls obj))))

let fetch ?meter t obj =
  if Array.length t.steps = 0 then invalid_arg "Predicate.fetch: empty path";
  walk meter t 0 obj

let eval ?meter t ~op ~operand obj =
  match fetch ?meter t obj with
  | Predicate.Missing block -> Predicate.Blocked block
  | Predicate.Found v ->
    if Predicate.compare_op ?meter op v operand then Predicate.Sat
    else Predicate.Viol

let iter_refs t obj f =
  let n = Array.length t.steps in
  let rec go k obj =
    if k < n then
      let st = Array.unsafe_get t.steps k in
      let slot = slot_for t st obj in
      if slot >= 0 then
        match Dbobject.field obj slot with
        | Value.Ref l -> (
          match Database.get t.db l with
          | Some next ->
            f next;
            go (k + 1) next
          | None -> ())
        | Value.Null | Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _
          ->
          ()
  in
  go 0 obj
