type t = {
  name : string;
  schema : Schema.t;
  (* Columnar per-class storage; insertion order is the row order. *)
  extents : (string, Extent.t) Hashtbl.t;
  (* Indexed by LOid: [add] allocates LOids densely from 0 and nothing
     deletes an object, so LOid [i] is slot [i] of each array. [homes] and
     [rows] say where the object sits in its class extent. *)
  mutable objs : Dbobject.t array;
  mutable homes : Extent.t array;
  mutable rows : int array;
  mutable next_loid : int;
}

exception Integrity_error of string

let integrity fmt = Printf.ksprintf (fun s -> raise (Integrity_error s)) fmt

let create ~name ~schema =
  let extents = Hashtbl.create 8 in
  List.iter
    (fun cd ->
      Hashtbl.add extents cd.Schema.cname
        (Extent.create ~schema ~cls:cd.Schema.cname))
    (Schema.classes schema);
  { name; schema; extents; objs = [||]; homes = [||]; rows = [||]; next_loid = 0 }

let name t = t.name
let schema t = t.schema

let get t loid =
  let i = Oid.Loid.to_int loid in
  if i >= 0 && i < t.next_loid then Some (Array.unsafe_get t.objs i) else None

let get_exn t loid =
  match get t loid with
  | Some o -> o
  | None -> integrity "%s: no object with loid %s" t.name (Oid.Loid.to_string loid)

let locate t loid =
  let i = Oid.Loid.to_int loid in
  if i >= 0 && i < t.next_loid then Some (t.homes.(i), t.rows.(i)) else None

let row_of t i =
  if i >= 0 && i < t.next_loid then Array.unsafe_get t.rows i
  else invalid_arg (Printf.sprintf "Database.row_of: %s has no LOid %d" t.name i)

let deref t = function
  | Value.Ref l -> get t l
  | Value.Null | Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _ -> None

let extent_handle t cls =
  match Hashtbl.find_opt t.extents cls with
  | Some e -> e
  | None -> integrity "%s: unknown class %s" t.name cls

let extent t cls = Extent.to_list (extent_handle t cls)
let extent_size t cls = Extent.size (extent_handle t cls)
let cardinality t = t.next_loid

let check_field t ~cls ~attr v =
  (match v with
  | Value.Ref l -> (
    match (get t l, attr.Schema.atype) with
    | None, _ ->
      integrity "%s: %s.%s references missing object %s" t.name cls
        attr.Schema.aname (Oid.Loid.to_string l)
    | Some target, Schema.Complex domain ->
      if not (String.equal (Dbobject.cls target) domain) then
        integrity "%s: %s.%s must reference %s, got %s" t.name cls
          attr.Schema.aname domain (Dbobject.cls target)
    | Some _, Schema.Prim _ ->
      integrity "%s: %s.%s is primitive but holds a reference" t.name cls
        attr.Schema.aname)
  | Value.Null | Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _ -> ());
  if not (Schema.value_matches t.schema attr.Schema.atype v) then
    integrity "%s: value %s does not match type of %s.%s" t.name
      (Value.to_string v) cls attr.Schema.aname

(* Grows the LOid-indexed arrays to hold LOid [i]; [o] and [home] fill the
   fresh slots until they are written. *)
let reserve t i o home =
  let cap = Array.length t.objs in
  if i >= cap then begin
    let cap = max 16 (2 * cap) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.next_loid;
      b
    in
    t.objs <- grow t.objs o;
    t.homes <- grow t.homes home;
    t.rows <- grow t.rows 0
  end

let add t ~cls values =
  let cd =
    match Schema.find_class t.schema cls with
    | Some cd -> cd
    | None -> integrity "%s: unknown class %s" t.name cls
  in
  let arity = List.length cd.Schema.attrs in
  if List.length values <> arity then
    integrity "%s: class %s expects %d fields, got %d" t.name cls arity
      (List.length values);
  List.iter2 (fun attr v -> check_field t ~cls ~attr v) cd.Schema.attrs values;
  let i = t.next_loid in
  (* The schema's own class name, so every object of a class shares one
     string and class tests on hot paths hit physical equality. *)
  let o =
    Dbobject.make ~loid:(Oid.Loid.of_int i) ~cls:cd.Schema.cname
      ~fields:(Array.of_list values)
  in
  let home = extent_handle t cls in
  reserve t i o home;
  t.objs.(i) <- o;
  t.homes.(i) <- home;
  t.rows.(i) <- Extent.append home o;
  t.next_loid <- i + 1;
  o

let field_by_name t o attr =
  match Schema.attr_index t.schema ~cls:(Dbobject.cls o) ~attr with
  | Some i -> Some (Dbobject.field o i)
  | None -> None

let pp ppf t =
  Format.fprintf ppf "@[<v>database %s (%d objects)@," t.name t.next_loid;
  List.iter
    (fun cd ->
      let cls = cd.Schema.cname in
      Format.fprintf ppf "  %s: %d@," cls (extent_size t cls))
    (Schema.classes t.schema);
  Format.fprintf ppf "@]"
