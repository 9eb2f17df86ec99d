(* Small helpers shared across test suites. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  nl = 0 || at 0

(* A path relative to the test executable's directory, where dune copies
   the goldens, the committed bench results and the msdq binary the suites
   depend on; so a suite finds them from any working directory. *)
let beside_exe rel = Filename.concat (Filename.dirname Sys.executable_name) rel

let string_of_values vs = String.concat "," (List.map Msdq_odb.Value.to_string vs)

(* Name of an object per its "name" attribute, for readable assertions. *)
let name_of db obj =
  match Msdq_odb.Database.field_by_name db obj "name" with
  | Some (Msdq_odb.Value.Str s) -> s
  | Some v -> Msdq_odb.Value.to_string v
  | None -> "?"

(* The chaos suites' cases: [Synth.default] with every database hosting
   every class, so checks and shipping actually happen. *)
let chaos_case = Msdq_workload.Synth.(case { default with p_host = 1.0 })

(* A seeded chaos schedule over component sites 1..[n_db]: crash windows at
   a random availability in [0.5, 1), links to those sites dropping up to
   30%, plus a 10% lossy link into the global site 0. Near-perfect
   availability degenerates to the lossy-link-only chaos point: no crash
   windows, drops still flowing. *)
let random_schedule ~seed ~n_db ~horizon =
  let module Fault = Msdq_fault.Fault in
  let rng = Msdq_workload.Rng.create ~seed in
  let availability = 0.5 +. (0.5 *. Msdq_workload.Rng.float rng) in
  let availability = if availability >= 0.999 then 1.0 else availability in
  let drop = 0.3 *. Msdq_workload.Rng.float rng in
  let sched =
    Fault.random ~rng
      ~sites:(List.init n_db (fun i -> i + 1))
      ~availability ~horizon ~drop ()
  in
  {
    sched with
    Fault.links =
      { Fault.dst = 0; drop = 0.1; inflate = 1.0; jitter = 0.0 } :: sched.Fault.links;
  }
