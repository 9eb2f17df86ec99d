(* A query's paths walked column by column over one root extent.

   The walk is a trie of reference prefixes. Its root is the root extent;
   the child of a node through attribute [a] holds, for every root row, the
   row of the object [a] references, in the extent of [a]'s domain class.
   References always point into their attribute's domain class
   ([Database.add] checks it), so each node's objects share one extent. A
   row whose walk stopped earlier, at step [k], holds [-1 - k] instead:
   where a walk stopped, and on which object, is two array loads. *)

type node = {
  depth : int;
  ext : Extent.t option;  (* [None]: no object reaches this node *)
  rows : int array;  (* [||] at the root, where row [r] is root row [r] *)
  mutable children : (string * node) list;
}

type path = {
  suffixes : Path.t array;  (* [suffixes.(k)]: the path from step [k] on *)
  nodes : node array;  (* [nodes.(k)]: where step [k] reads its attribute *)
  slots : int array;  (* [slots.(k)]: that attribute's column, or -1 *)
}

(* The objects of one extent reached through a reference. *)
type marks = { m_ext : Extent.t; bits : Bitset.t; mutable count : int }

type t = { root : Extent.t; paths : path array; marks : marks list }

let row_at node r = if node.depth = 0 then r else node.rows.(r)

let marks_of marks e =
  match List.find_opt (fun m -> m.m_ext == e) !marks with
  | Some m -> m
  | None ->
    let m = { m_ext = e; bits = Bitset.create (Extent.size e); count = 0 } in
    marks := m :: !marks;
    m

let mark m row =
  if not (Bitset.mem m.bits row) then begin
    Bitset.set m.bits row;
    m.count <- m.count + 1
  end

(* The child of [parent] (at depth [k]) through step [k]'s attribute
   [attr]; [suffix] is the path from step [k] on. *)
let child db marks ~size parent k attr suffix =
  let dead rows = { depth = k + 1; ext = None; rows; children = [] } in
  let stopped_here () =
    Array.init size (fun r ->
        let p = row_at parent r in
        if p < 0 then p else -1 - k)
  in
  match parent.ext with
  | None -> dead parent.rows
  | Some e -> (
    let s = Extent.slot e attr in
    if s < 0 then dead (stopped_here ())
    else
      match Extent.column_type e s with
      | Schema.Prim _ ->
        for r = 0 to size - 1 do
          let p = row_at parent r in
          if p >= 0 && Extent.present e s p then
            raise
              (Value.Type_error
                 (Printf.sprintf "path %s traverses primitive attribute %s of %s"
                    (Path.to_string suffix) attr (Extent.cls e)))
        done;
        dead (stopped_here ())
      | Schema.Complex domain ->
        let next = Database.extent_handle db domain in
        let m = marks_of marks next in
        let rows = Array.make size 0 in
        for r = 0 to size - 1 do
          let p = row_at parent r in
          rows.(r) <-
            (if p < 0 then p
             else if Extent.present e s p then begin
               let row = Database.row_of db (Extent.target e s p) in
               mark m row;
               row
             end
             else -1 - k)
        done;
        { depth = k + 1; ext = Some next; rows; children = [] })

(* A path whose last attribute holds references reaches those objects
   too. *)
let mark_leaf_refs db marks ~size leaf s =
  match leaf.ext with
  | Some e when s >= 0 -> (
    match Extent.column_type e s with
    | Schema.Complex domain ->
      let m = marks_of marks (Database.extent_handle db domain) in
      for r = 0 to size - 1 do
        let lr = row_at leaf r in
        if lr >= 0 && Extent.present e s lr then
          mark m (Database.row_of db (Extent.target e s lr))
      done
    | Schema.Prim _ -> ())
  | Some _ | None -> ()

let run db root paths =
  let size = Extent.size root in
  let marks = ref [] in
  let top = { depth = 0; ext = Some root; rows = [||]; children = [] } in
  let walk path =
    if path = [] then invalid_arg "Scan.run: empty path";
    let attrs = Array.of_list path in
    let n = Array.length attrs in
    let suffixes = Array.make n path in
    List.iteri (fun k _ -> if k > 0 then suffixes.(k) <- List.tl suffixes.(k - 1)) path;
    let nodes = Array.make n top in
    for k = 1 to n - 1 do
      let parent = nodes.(k - 1) and attr = attrs.(k - 1) in
      nodes.(k) <-
        (match List.assoc_opt attr parent.children with
        | Some c -> c
        | None ->
          let c = child db marks ~size parent (k - 1) attr suffixes.(k - 1) in
          parent.children <- (attr, c) :: parent.children;
          c)
    done;
    let slots =
      Array.mapi
        (fun k node ->
          match node.ext with Some e -> Extent.slot e attrs.(k) | None -> -1)
        nodes
    in
    mark_leaf_refs db marks ~size nodes.(n - 1) slots.(n - 1);
    { suffixes; nodes; slots }
  in
  let paths = Array.map walk paths in
  { root; paths; marks = !marks }

let root t = t.root
let length t i = Array.length t.paths.(i).nodes

let step t i r =
  let p = t.paths.(i) in
  let n = Array.length p.nodes in
  let leaf = p.nodes.(n - 1) in
  let lr = row_at leaf r in
  if lr < 0 then -1 - lr
  else
    let s = p.slots.(n - 1) in
    match leaf.ext with
    | Some e when s >= 0 && Extent.present e s lr -> n
    | Some _ | None -> n - 1

let item t i ~step r =
  let node = t.paths.(i).nodes.(step) in
  match node.ext with
  | Some e -> Extent.handle e (row_at node r)
  | None -> invalid_arg "Scan.item: no object reaches this step"

let rest t i ~step = t.paths.(i).suffixes.(step)

let cause t i ~step =
  if t.paths.(i).slots.(step) < 0 then Predicate.Missing_attribute
  else Predicate.Null_value

let value t i r =
  let p = t.paths.(i) in
  let n = Array.length p.nodes in
  let leaf = p.nodes.(n - 1) and s = p.slots.(n - 1) in
  let lr = row_at leaf r in
  match leaf.ext with
  | Some e when lr >= 0 && s >= 0 -> Dbobject.field (Extent.handle e lr) s
  | Some _ | None -> Value.Null

(* A walk that stopped at step [k] read [k + 1] attributes. *)
let accesses t i =
  let p = t.paths.(i) in
  let n = Array.length p.nodes in
  let leaf = p.nodes.(n - 1) in
  if leaf.depth = 0 then Extent.size t.root * n
  else Array.fold_left (fun acc lr -> acc + if lr < 0 then -lr else n) 0 leaf.rows

let truths ?meter t i ~op ~operand =
  let p = t.paths.(i) in
  let n = Array.length p.nodes in
  let leaf = p.nodes.(n - 1) in
  let size = Extent.size t.root in
  let unknown = Truth.code Truth.Unknown in
  let charge ~accesses ~comparisons =
    match meter with
    | Some m ->
      Meter.add_accesses m accesses;
      Meter.add_comparisons m comparisons
    | None -> ()
  in
  let codes =
    match leaf.ext with
    | Some e ->
      Extent.eval_attr e ~attr:(List.hd p.suffixes.(n - 1)) ~op ~operand
    | None -> None
  in
  match codes with
  | None ->
    (* Either no row reaches the last attribute, or its column cannot be
       ordered against [operand]: then the first value raises, as
       [Predicate.compare_op] does. *)
    for r = 0 to size - 1 do
      match value t i r with
      | Value.Null -> ()
      | v -> ignore (Predicate.compare_op ?meter op v operand)
    done;
    charge ~accesses:(accesses t i) ~comparisons:0;
    Bytes.make size unknown
  | Some codes ->
    (* At the root the codes are per root row already: rewrite them in
       place. *)
    let out = if leaf.depth = 0 then codes else Bytes.create size in
    let walked = ref 0 and comparisons = ref 0 in
    for r = 0 to size - 1 do
      let lr = row_at leaf r in
      walked := !walked + (if lr < 0 then -lr else n);
      Bytes.unsafe_set out r
        (if lr < 0 then unknown
         else
           match Extent.verdict codes lr with
           | Extent.V_sat ->
             incr comparisons;
             Truth.code Truth.True
           | Extent.V_viol ->
             incr comparisons;
             Truth.code Truth.False
           | Extent.V_null | Extent.V_missing -> unknown)
    done;
    charge ~accesses:!walked ~comparisons:!comparisons;
    out

let touched t e =
  match List.find_opt (fun m -> m.m_ext == e) t.marks with
  | Some m -> m.count
  | None -> 0
