open Msdq_odb

type block = { at : Materialize.gobject; rest : Path.t }
type outcome = Sat | Viol | Blocked of block
type fetched = Found of Value.t | Found_set of Value.t list | Missing of block

let rec fetch ?meter view gobj path =
  match path with
  | [] -> invalid_arg "Global_eval.fetch: empty path"
  | name :: rest -> (
    (match meter with Some m -> Meter.add_accesses m 1 | None -> ());
    match Materialize.field view gobj name with
    | None ->
      (* The global class defines the union of constituent attributes, so a
         validated query never reaches an undefined attribute; a merged
         object simply holds Gnull there. Reaching this means the query was
         not validated against the global schema. *)
      invalid_arg
        (Printf.sprintf "Global_eval.fetch: %s has no attribute %s"
           gobj.Materialize.gcls name)
    | Some Materialize.Gnull -> Missing { at = gobj; rest = path }
    | Some (Materialize.Gprim v) -> (
      match rest with
      | [] -> Found v
      | _ :: _ ->
        raise
          (Value.Type_error
             (Printf.sprintf "path traverses primitive attribute %s of %s" name
                gobj.Materialize.gcls)))
    | Some (Materialize.Gset vs) -> (
      match rest with
      | [] -> Found_set vs
      | _ :: _ ->
        raise
          (Value.Type_error
             (Printf.sprintf "path traverses primitive attribute %s of %s" name
                gobj.Materialize.gcls)))
    | Some (Materialize.Gref g) -> (
      match rest with
      | [] ->
        (* A complex attribute as the final step: its value is the object
           identity. Comparisons on identities are not expressible in
           queries, so surface it as a missing primitive. *)
        Missing { at = gobj; rest = path }
      | _ :: _ -> (
        match Materialize.find view g with
        | Some next -> fetch ?meter view next rest
        | None ->
          invalid_arg
            (Printf.sprintf
               "Global_eval.fetch: referenced entity %s was not materialized"
               (Oid.Goid.to_string g)))))

let outcome_of_fetched ?meter (p : Predicate.t) = function
  | Missing b -> Blocked b
  | Found v ->
    if Predicate.compare_op ?meter p.Predicate.op v p.Predicate.operand then
      Sat
    else Viol
  | Found_set vs ->
    (* Multi-valued attribute: existential semantics — the entity carries
       all these values. *)
    if
      List.exists
        (fun v -> Predicate.compare_op ?meter p.Predicate.op v p.Predicate.operand)
        vs
    then Sat
    else Viol

let eval ?meter view gobj (p : Predicate.t) =
  outcome_of_fetched ?meter p (fetch ?meter view gobj p.Predicate.path)

let project_of_fetched = function
  | Found v -> v
  | Found_set (v :: _) -> v
  | Found_set [] | Missing _ -> Value.Null

let project ?meter view gobj path =
  project_of_fetched (fetch ?meter view gobj path)

(* ---- Paths resolved to global slots ---- *)

(* A path resolved to global slots: each step caches the global class it
   was resolved for and the attribute's slot there, and an object of
   another class re-resolves the step by name. Only the root class is
   known before the walk; the first entity resolves the rest. *)
type gstep = {
  name : string;
  suffix : Path.t;
  last : bool;
  mutable gcls : string option;
  mutable slot : int;  (* -1: the class does not define [name] *)
}

type resolved = { view : Materialize.t; gsteps : gstep array }

let lookup view ~gcls ~attr =
  match Materialize.attr_slot view ~gcls ~attr with Some i -> i | None -> -1

let resolve view ~root path =
  let rec go gcls = function
    | [] -> []
    | name :: rest as suffix ->
      let slot =
        match gcls with Some gcls -> lookup view ~gcls ~attr:name | None -> -1
      in
      { name; suffix; last = rest = []; gcls; slot } :: go None rest
  in
  { view; gsteps = Array.of_list (go (Some root) path) }

let slot_for r st (gobj : Materialize.gobject) =
  let gcls = gobj.Materialize.gcls in
  match st.gcls with
  | Some c when c == gcls || String.equal c gcls -> st.slot
  | Some _ | None ->
    let slot = lookup r.view ~gcls ~attr:st.name in
    st.gcls <- Some gcls;
    st.slot <- slot;
    slot

let fetch_resolved ?meter r gobj =
  let n = Array.length r.gsteps in
  if n = 0 then invalid_arg "Global_eval.fetch: empty path";
  let rec go k (gobj : Materialize.gobject) =
    let st = Array.unsafe_get r.gsteps k in
    (match meter with Some m -> Meter.add_accesses m 1 | None -> ());
    let slot = slot_for r st gobj in
    if slot < 0 then
      invalid_arg
        (Printf.sprintf "Global_eval.fetch: %s has no attribute %s"
           gobj.Materialize.gcls st.name);
    let primitive () =
      raise
        (Value.Type_error
           (Printf.sprintf "path traverses primitive attribute %s of %s"
              st.name gobj.Materialize.gcls))
    in
    match gobj.Materialize.fields.(slot) with
    | Materialize.Gnull -> Missing { at = gobj; rest = st.suffix }
    | Materialize.Gprim v -> if st.last then Found v else primitive ()
    | Materialize.Gset vs -> if st.last then Found_set vs else primitive ()
    | Materialize.Gref g -> (
      if st.last then Missing { at = gobj; rest = st.suffix }
      else
        match Materialize.find r.view g with
        | Some next -> go (k + 1) next
        | None ->
          invalid_arg
            (Printf.sprintf
               "Global_eval.fetch: referenced entity %s was not materialized"
               (Oid.Goid.to_string g)))
  in
  go 0 gobj

let eval_resolved ?meter r gobj p =
  outcome_of_fetched ?meter p (fetch_resolved ?meter r gobj)

let project_resolved ?meter r gobj =
  project_of_fetched (fetch_resolved ?meter r gobj)

let truth_of_outcome = function
  | Sat -> Truth.True
  | Viol -> Truth.False
  | Blocked _ -> Truth.Unknown

let eval_conjunction ?meter view gobj preds =
  (* Short-circuit on False but keep evaluating through Unknown, mirroring
     what an engine evaluating conjuncts in sequence would do. *)
  let rec go acc = function
    | [] -> acc
    | p :: rest -> (
      match Truth.conj acc (truth_of_outcome (eval ?meter view gobj p)) with
      | Truth.False -> Truth.False
      | (Truth.True | Truth.Unknown) as t -> go t rest)
  in
  go Truth.True preds
