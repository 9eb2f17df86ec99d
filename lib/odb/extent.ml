(* Columnar extent storage: one flat unboxed array per attribute.

   A class's extent keeps, besides the row handles ([Dbobject.t], still
   the identity used by GOid tables, blocking points and answers), one
   typed column per attribute — [int array], [float array] (flat, no
   per-element boxing), [string array], [Bytes.t] for bools, and an
   [int array] of LOids for references — plus a presence bitset per column
   (bit r set iff row r is non-null) and the extent's columnar signature
   store ([Sigset], maintained incrementally on append).

   [eval_attr] is the point of the representation: evaluating a one-step
   predicate over the whole extent as one tight loop over contiguous data.
   The boxed path ([Predicate.eval] per object) pays two string-hashing
   hashtable probes ([Schema.attr_index]) plus a constructor dispatch per
   object per atom; here the attribute resolves once and each row costs an
   array load, a bit test and an unboxed compare. Answers and meter totals
   are identical by construction: 1 access per object per atom, 1
   comparison iff the value is present — exactly what the per-object walk
   charges — with golden tests and the qcheck properties pinning the
   bytes. *)

type data =
  | D_int of int array
  | D_float of float array  (* flat float array: unboxed elements *)
  | D_str of string array
  | D_bool of Bytes.t
  | D_ref of int array  (* LOid as int *)

type column = {
  ctype : Schema.attr_type;
  mutable data : data;
  present : Bitset.t;  (* bit r set iff row r non-null *)
}

type t = {
  cls : string;
  slots : (string, int) Hashtbl.t;  (* attr name -> column index *)
  cols : column array;
  sigs : Sigset.t;
  mutable n : int;
  mutable cap : int;
  mutable objs : Dbobject.t array;
}

let create ~schema ~cls =
  let cd =
    match Schema.find_class schema cls with
    | Some cd -> cd
    | None -> invalid_arg (Printf.sprintf "Extent.create: unknown class %s" cls)
  in
  let attrs = Array.of_list cd.Schema.attrs in
  let slots = Hashtbl.create (max 4 (Array.length attrs)) in
  Array.iteri (fun i a -> Hashtbl.replace slots a.Schema.aname i) attrs;
  let column a =
    let data =
      match a.Schema.atype with
      | Schema.Prim Schema.P_int -> D_int [||]
      | Schema.Prim Schema.P_float -> D_float [||]
      | Schema.Prim Schema.P_string -> D_str [||]
      | Schema.Prim Schema.P_bool -> D_bool Bytes.empty
      | Schema.Complex _ -> D_ref [||]
    in
    { ctype = a.Schema.atype; data; present = Bitset.create 64 }
  in
  {
    cls;
    slots;
    cols = Array.map column attrs;
    sigs = Sigset.create ~arity:(Array.length attrs) ();
    n = 0;
    cap = 0;
    objs = [||];
  }

let cls t = t.cls
let size t = t.n
let signatures t = t.sigs

let handle t r =
  if r < 0 || r >= t.n then
    invalid_arg (Printf.sprintf "Extent.handle: row %d out of range" r)
  else t.objs.(r)

let iter f t =
  for r = 0 to t.n - 1 do
    f t.objs.(r)
  done

let to_list t =
  let rec go r acc = if r < 0 then acc else go (r - 1) (t.objs.(r) :: acc) in
  go (t.n - 1) []

let grow_data cap = function
  | D_int a ->
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 (Array.length a);
    D_int b
  | D_float a ->
    let b = Array.make cap 0.0 in
    Array.blit a 0 b 0 (Array.length a);
    D_float b
  | D_str a ->
    let b = Array.make cap "" in
    Array.blit a 0 b 0 (Array.length a);
    D_str b
  | D_bool a ->
    let b = Bytes.make cap '\000' in
    Bytes.blit a 0 b 0 (Bytes.length a);
    D_bool b
  | D_ref a ->
    let b = Array.make cap (-1) in
    Array.blit a 0 b 0 (Array.length a);
    D_ref b

let grow t obj =
  let cap = if t.cap = 0 then 16 else 2 * t.cap in
  let objs = Array.make cap obj in
  Array.blit t.objs 0 objs 0 t.n;
  t.objs <- objs;
  Array.iter (fun c -> c.data <- grow_data cap c.data) t.cols;
  t.cap <- cap

let append t obj =
  if not (String.equal (Dbobject.cls obj) t.cls) then
    invalid_arg
      (Printf.sprintf "Extent.append: %s object into %s extent"
         (Dbobject.cls obj) t.cls);
  let fields = obj.Dbobject.fields in
  if Array.length fields <> Array.length t.cols then
    invalid_arg "Extent.append: field count does not match the class arity";
  if t.n = t.cap then grow t obj;
  let r = t.n in
  t.objs.(r) <- obj;
  Array.iteri
    (fun i col ->
      match fields.(i) with
      | Value.Null -> ()  (* presence bit stays clear *)
      | v -> (
        Bitset.set col.present r;
        match (col.data, v) with
        | D_int a, Value.Int x -> a.(r) <- x
        | D_float a, Value.Float x -> a.(r) <- x
        | D_str a, Value.Str x -> a.(r) <- x
        | D_bool a, Value.Bool x -> Bytes.set a r (if x then '\001' else '\000')
        | D_ref a, Value.Ref l -> a.(r) <- Oid.Loid.to_int l
        | (D_int _ | D_float _ | D_str _ | D_bool _ | D_ref _), _ ->
          invalid_arg
            (Printf.sprintf "Extent.append: attribute %d of %s cannot hold a %s"
               i t.cls (Value.type_name v))))
    t.cols;
  ignore (Sigset.append t.sigs fields);
  t.n <- r + 1;
  r

(* ---- column access ---- *)

let slot t attr = match Hashtbl.find_opt t.slots attr with Some i -> i | None -> -1
let column_type t slot = t.cols.(slot).ctype
let present t slot r = Bitset.mem t.cols.(slot).present r

let target t slot r =
  match t.cols.(slot).data with
  | D_ref a -> a.(r)
  | D_int _ | D_float _ | D_str _ | D_bool _ ->
    invalid_arg (Printf.sprintf "Extent.target: column %d of %s holds no references" slot t.cls)

(* ---- columnar predicate evaluation ---- *)

type verdict = V_sat | V_viol | V_null | V_missing

let c_sat = '\000'
let c_viol = '\001'
let c_null = '\002'
let c_missing = '\003'

let verdict codes r =
  match Bytes.get codes r with
  | '\000' -> V_sat
  | '\001' -> V_viol
  | '\002' -> V_null
  | _ -> V_missing

let tick_accesses meter n =
  match meter with Some m -> Meter.add_accesses m n | None -> ()

let tick_comparisons meter n =
  match meter with Some m -> Meter.add_comparisons m n | None -> ()

(* [eval_attr t ~attr ~op ~operand] evaluates the one-step predicate
   [attr op operand] over every row as a single typed loop and returns the
   per-row verdict codes, or [None] when only the per-object walk can
   reproduce the exact semantics — an ordering comparison against a column
   whose type differs from the operand's raises [Value.Type_error] at the
   first non-null row, and replaying that abort point is the fallback's
   job. On [Some], the meter is charged exactly as the per-object walk
   would: one access per row, one comparison per non-null row. *)
let eval_attr ?meter t ~attr ~op ~operand =
  let n = t.n in
  match Hashtbl.find_opt t.slots attr with
  | None ->
    (* attribute undefined on this class: every row blocks at schema level *)
    tick_accesses meter n;
    Some (Bytes.make n c_missing)
  | Some ci ->
    let col = t.cols.(ci) in
    let ordered =
      match op with
      | Relop.Eq | Relop.Ne -> false
      | Relop.Lt | Relop.Le | Relop.Gt | Relop.Ge -> true
    in
    let typed =
      match (col.data, operand) with
      | D_int _, Value.Int _
      | D_float _, Value.Float _
      | D_str _, Value.Str _
      | D_bool _, Value.Bool _ ->
        true
      | (D_int _ | D_float _ | D_str _ | D_bool _ | D_ref _), _ -> false
    in
    if ordered && not typed then None
    else begin
      let out = Bytes.make n c_null in
      let present = col.present in
      let comparisons = ref 0 in
      let sat_of_cmp =
        match op with
        | Relop.Eq -> fun c -> c = 0
        | Relop.Ne -> fun c -> c <> 0
        | Relop.Lt -> fun c -> c < 0
        | Relop.Le -> fun c -> c <= 0
        | Relop.Gt -> fun c -> c > 0
        | Relop.Ge -> fun c -> c >= 0
      in
      let code_row r c =
        incr comparisons;
        Bytes.unsafe_set out r (if sat_of_cmp c then c_sat else c_viol)
      in
      (match (col.data, operand) with
      | D_int a, Value.Int x ->
        for r = 0 to n - 1 do
          if Bitset.mem present r then
            code_row r (Int.compare (Array.unsafe_get a r) x)
        done
      | D_float a, Value.Float x ->
        for r = 0 to n - 1 do
          if Bitset.mem present r then
            code_row r (Float.compare (Array.unsafe_get a r) x)
        done
      | D_str a, Value.Str x ->
        for r = 0 to n - 1 do
          if Bitset.mem present r then
            code_row r (String.compare (Array.unsafe_get a r) x)
        done
      | D_bool a, Value.Bool x ->
        let x = if x then 1 else 0 in
        for r = 0 to n - 1 do
          if Bitset.mem present r then
            code_row r (Int.compare (Char.code (Bytes.unsafe_get a r)) x)
        done
      | (D_int _ | D_float _ | D_str _ | D_bool _ | D_ref _), _ ->
        (* type mismatch under Eq/Ne: [Value.equal] across constructors is
           false, so every present row is Viol (Eq) / Sat (Ne) *)
        let c = if op = Relop.Ne then c_sat else c_viol in
        for r = 0 to n - 1 do
          if Bitset.mem present r then begin
            incr comparisons;
            Bytes.unsafe_set out r c
          end
        done);
      tick_accesses meter n;
      tick_comparisons meter !comparisons;
      Some out
    end
