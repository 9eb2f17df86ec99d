open Msdq_odb
open Msdq_fed
open Msdq_query
module Tracer = Msdq_obs.Tracer

let log_src = Logs.Src.create "msdq.local" ~doc:"local predicate evaluation"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Path [i] of the walk is atom [i]'s for [i < n_atoms], then the
   targets'. [columns] holds each atom's truth column and what evaluating
   the atoms object by object would charge; the result and the probe
   share it (Unknown is exactly where an atom's walk stopped). The result
   is kept once derived, and the probe borrows its rows' unsolved
   entries. *)
type scan = {
  fed : Federation.t;
  analysis : Analysis.t;
  db_name : string;
  walk : Scan.t;
  n_atoms : int;
  touched_counts : (string * int) list;
  columns : (Bytes.t array * Meter.snapshot) Lazy.t;
  mutable result : Local_result.t option;
}

let scan ?(tracer = Tracer.disabled) fed (analysis : Analysis.t) ~db:db_name =
  Tracer.with_span tracer ~cat:"eval" ~args:[ ("db", db_name) ]
    "local_eval.scan"
  @@ fun () ->
  let gs = Federation.global_schema fed in
  let db = Federation.db fed db_name in
  let root_gcls = analysis.Analysis.range_class in
  let root_cls =
    match Global_schema.constituent_of gs ~gcls:root_gcls ~db:db_name with
    | Some cls -> cls
    | None ->
      invalid_arg
        (Printf.sprintf "Local_eval.scan: %s has no constituent of %s" db_name
           root_gcls)
  in
  let root = Database.extent_handle db root_cls in
  let walk =
    Scan.run db root
      (Array.of_list
         (List.map (fun info -> info.Analysis.pred.Predicate.path) analysis.Analysis.atoms
         @ List.map fst analysis.Analysis.targets))
  in
  let touched_counts =
    List.filter_map
      (fun gcls ->
        if String.equal gcls root_gcls then Some (gcls, Extent.size root)
        else
          Option.map
            (fun cls -> (gcls, Scan.touched walk (Database.extent_handle db cls)))
            (Global_schema.constituent_of gs ~gcls ~db:db_name))
      analysis.Analysis.classes_involved
  in
  let columns =
    lazy
      (let meter = Meter.create () in
       let columns =
         Array.of_list
           (List.mapi
              (fun i info ->
                let pred = info.Analysis.pred in
                Scan.truths ~meter walk i ~op:pred.Predicate.op
                  ~operand:pred.Predicate.operand)
              analysis.Analysis.atoms)
       in
       (columns, Meter.read meter))
  in
  {
    fed;
    analysis;
    db_name;
    walk;
    n_atoms = List.length analysis.Analysis.atoms;
    touched_counts;
    columns;
    result = None;
  }

let touched s = s.touched_counts

(* The unsolved entry of atom [i] at root row [r], whose walk stopped. *)
let unsolved walk i r =
  let step = Scan.step walk i r in
  {
    Local_result.atom = i;
    item = Scan.item walk i ~step r;
    rest = Scan.rest walk i ~step;
    cause = Scan.cause walk i ~step;
  }

let derive_result s =
  let walk = s.walk and n_atoms = s.n_atoms in
  let columns, charged = Lazy.force s.columns in
  let preds =
    Array.of_list (List.map (fun info -> info.Analysis.pred) s.analysis.Analysis.atoms)
  in
  let n_targets = List.length s.analysis.Analysis.targets in
  let size = Extent.size (Scan.root walk) in
  let keep =
    Cond.eval_columns columns ~rows:size
      (Cond.index preds s.analysis.Analysis.query.Ast.where)
  in
  let goids = Goid_table.local_map (Federation.goids s.fed) ~db:s.db_name in
  let false_ = Truth.code Truth.False and unknown = Truth.code Truth.Unknown in
  (* Rows with the same truths share one array, keyed by the truth codes
     read as a base-3 number, when the extent has more rows than there
     are keys; nothing writes a row's truths. *)
  let truths_of =
    let fresh r =
      Array.init n_atoms (fun i -> Truth.of_code (Bytes.get columns.(i) r))
    in
    let keys = if n_atoms > 6 then max_int else int_of_float (3. ** float_of_int n_atoms) in
    if size <= keys then fresh
    else
      let shared = Array.make keys [||] in
      fun r ->
        let key = ref 0 in
        for i = 0 to n_atoms - 1 do
          key := (!key * 3) + Char.code (Bytes.unsafe_get (Array.unsafe_get columns i) r)
        done;
        let a = Array.unsafe_get shared !key in
        if Array.length a = n_atoms then a
        else begin
          let a = fresh r in
          shared.(!key) <- a;
          a
        end
  in
  (* A target's walk reads each step up to the value, or up to the step
     where it stopped. *)
  let fetched = ref 0 in
  let value r j =
    let i = n_atoms + j in
    match Scan.value walk i r with
    | Value.Null ->
      fetched := !fetched + Scan.step walk i r + 1;
      None
    | v ->
      fetched := !fetched + Scan.length walk i;
      Some v
  in
  let values_of r =
    match n_targets with
    | 1 -> [| value r 0 |]
    | 2 ->
      let v0 = value r 0 in
      [| v0; value r 1 |]
    | n -> Array.init n (value r)
  in
  let eliminated = ref 0 and rows = ref [] in
  (* Rows are built last to first, so the list comes out in extent
     order. *)
  for r = size - 1 downto 0 do
    if Bytes.unsafe_get keep r = false_ then incr eliminated
    else begin
      let obj = Extent.handle (Scan.root walk) r in
      let goid =
        match Goid_table.goid_in goids (Dbobject.loid obj) with
        | Some g -> g
        | None ->
          invalid_arg
            (Printf.sprintf "Local_eval.run: object %s@%s is not registered"
               (Oid.Loid.to_string (Dbobject.loid obj))
               s.db_name)
      in
      let blocked = ref [] in
      for i = n_atoms - 1 downto 0 do
        if Bytes.unsafe_get (Array.unsafe_get columns i) r = unknown then
          blocked := unsolved walk i r :: !blocked
      done;
      rows :=
        {
          Local_result.db = s.db_name;
          obj;
          goid;
          truths = truths_of r;
          unsolved = !blocked;
          values = values_of r;
        }
        :: !rows
    end
  done;
  let kept = size - !eliminated in
  Log.debug (fun m ->
      m "%s: %d examined, %d eliminated, %d rows" s.db_name size !eliminated kept);
  (* Per object, each atom's walk and comparison; per row, one GOid lookup
     and each target's walk. *)
  let meter = Meter.create () in
  Meter.add_comparisons meter charged.Meter.comparisons;
  Meter.add_accesses meter (charged.Meter.accesses + !fetched);
  Meter.add_goid_lookups meter kept;
  {
    Local_result.db = s.db_name;
    rows = !rows;
    examined = size;
    eliminated = !eliminated;
    work = Meter.read meter;
  }

let result ?(tracer = Tracer.disabled) s =
  match s.result with
  | Some r -> r
  | None ->
    let r =
      Tracer.with_span tracer ~cat:"eval" ~args:[ ("db", s.db_name) ]
        "local_eval.run" (fun () -> derive_result s)
    in
    s.result <- Some r;
    r

type probe = {
  db : string;
  items : Local_result.unsolved list;
  examined : int;
  work : Meter.snapshot;
}

let probe ?(tracer = Tracer.disabled) s =
  Tracer.with_span tracer ~cat:"eval" ~args:[ ("db", s.db_name) ] "probe.run"
  @@ fun () ->
  let walk = s.walk in
  let columns, charged = Lazy.force s.columns in
  let size = Extent.size (Scan.root walk) in
  let unknown = Truth.code Truth.Unknown in
  let rec prepend l tail = match l with [] -> tail | u :: l -> u :: prepend l tail in
  (* A row of the result holds the unsolved entries of its object, in
     atom order: the probe takes those, and makes only the eliminated
     objects' entries. *)
  let rows =
    ref (match s.result with Some res -> List.rev res.Local_result.rows | None -> [])
  in
  let items = ref [] in
  for r = size - 1 downto 0 do
    match !rows with
    | (row : Local_result.row) :: rest
      when row.Local_result.obj == Extent.handle (Scan.root walk) r ->
      rows := rest;
      items := prepend row.Local_result.unsolved !items
    | _ ->
      for i = s.n_atoms - 1 downto 0 do
        if Bytes.unsafe_get (Array.unsafe_get columns i) r = unknown then
          items := unsolved walk i r :: !items
      done
  done;
  (* Fetching each atom's path charges what evaluating it does, without
     the comparisons. *)
  let meter = Meter.create () in
  Meter.add_accesses meter charged.Meter.accesses;
  { db = s.db_name; items = !items; examined = size; work = Meter.read meter }

let run ?tracer fed analysis ~db = result ?tracer (scan ?tracer fed analysis ~db)
