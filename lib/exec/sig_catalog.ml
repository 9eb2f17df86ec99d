open Msdq_odb
open Msdq_fed

type entry = { e_sigs : Sigset.t; e_row : int }

(* The signatures live in the extents; a lookup finds the object's extent
   and row through its database's LOid-indexed arrays. *)
type t = { dbs : (string * Database.t) list; count : int }

let build fed =
  let dbs = Federation.databases fed in
  {
    dbs;
    count = List.fold_left (fun acc (_, db) -> acc + Database.cardinality db) 0 dbs;
  }

let find t ~db loid =
  match List.find_opt (fun (name, _) -> String.equal name db) t.dbs with
  | None -> None
  | Some (_, db) -> (
    match Database.locate db loid with
    | Some (ext, row) -> Some { e_sigs = Extent.signatures ext; e_row = row }
    | None -> None)

let may_satisfy e ~index ~op ~operand =
  Sigset.may_satisfy e.e_sigs ~row:e.e_row ~index ~op ~operand

let object_count t = t.count
let storage_bytes t ~s_sig = t.count * s_sig
