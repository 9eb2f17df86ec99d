(* The discrete-event engine against its reference.

   [Engine_ref] is the engine as it stood before it moved onto flat arrays.
   Each property plays one random script on both engines and compares
   everything they report as text, floats in hex so that equal text means
   equal bits: the two totals, per-label and per-(site, kind) busy time,
   the trace entries, each task's finish time and outcome, the order and
   instants of the callbacks, and [Stuck] messages. Durations come from a
   small set that includes 0, so completion events tie often and every
   tie-breaking rule is exercised; graphs mix resource tasks, transfers
   (self-transfers included), fences and delays, and list some
   dependencies twice.

   Static scripts submit every task before the run, with no callbacks, as
   the parametric simulator does. Dynamic scripts add promises, tasks
   submitted from completion and outcome callbacks, promises resolved from
   callbacks or between runs, a judge that stretches and drops tasks by
   label (a quarter of them without callbacks), speed factors, and a
   second run after more submissions. Both kinds run traced and
   untraced. CI reruns this suite under a rotating
   seed:

     QCHECK_SEED=<seed> dune exec test/main.exe -- test simkit.engine_ref *)

open Msdq_simkit

module type ENGINE = sig
  type t
  type handle
  type outcome
  type judge

  exception Stuck of string list

  val create : ?trace:bool -> unit -> t
  val set_judge : t -> judge -> unit
  val set_speed : t -> site:int -> kind:Resource.kind -> factor:float -> unit
  val now : t -> Time.t

  val task :
    t -> ?deps:handle list -> ?on_complete:(unit -> unit) ->
    ?on_outcome:(outcome -> unit) -> ?attrs:(string * string) list ->
    site:int -> kind:Resource.kind -> label:string -> duration:Time.t -> unit ->
    handle

  val transfer :
    t -> ?deps:handle list -> ?on_complete:(unit -> unit) ->
    ?on_outcome:(outcome -> unit) -> ?attrs:(string * string) list ->
    src:int -> dst:int -> label:string -> duration:Time.t -> unit -> handle

  val fence :
    t -> ?deps:handle list -> ?on_complete:(unit -> unit) ->
    ?attrs:(string * string) list -> label:string -> unit -> handle

  val delay :
    t -> ?deps:handle list -> ?on_complete:(unit -> unit) ->
    ?attrs:(string * string) list -> label:string -> duration:Time.t -> unit ->
    handle

  val promise : t -> label:string -> handle
  val resolve : t -> handle -> unit
  val finished : t -> handle -> bool
  val finish_time : t -> handle -> Time.t
  val outcome_of : t -> handle -> outcome
  val run : t -> unit
  val stats : t -> Stats.t
  val trace : t -> Trace.t

  (* Adapters over the types the two engines do not share. *)
  val show : outcome -> string

  val judge :
    (site:int -> kind:Resource.kind -> src:int option -> label:string ->
    start:Time.t -> duration:Time.t -> (Time.t * string option) option) ->
    judge

  val totals : t -> Time.t * Time.t
end

module New : ENGINE = struct
  include Engine

  let show = function Delivered -> "delivered" | Dropped r -> "dropped " ^ r

  let judge f ~site ~kind ~src ~label ~start ~duration =
    Option.map
      (fun (fault_duration, fault_drop) -> { fault_duration; fault_drop })
      (f ~site ~kind ~src ~label ~start ~duration)

  let totals e =
    let x = Engine.totals e in
    (x.total_busy, x.makespan)
end

module Ref : ENGINE = struct
  include Engine_ref

  let show = function Delivered -> "delivered" | Dropped r -> "dropped " ^ r

  let judge f ~site ~kind ~src ~label ~start ~duration =
    Option.map
      (fun (fault_duration, fault_drop) -> { fault_duration; fault_drop })
      (f ~site ~kind ~src ~label ~start ~duration)

  let totals e =
    let st = stats e in
    (Stats.total_busy st, Stats.makespan st)
end

type op =
  | Task of int * Resource.kind * Time.t
  | Transfer of int * int * Time.t
  | Fence
  | Delay of Time.t
  | Promise of resolver

(* Who resolves a promise: the completion callback of another node, the
   script between its two runs, or nobody (the run ends [Stuck]). *)
and resolver = By of int | Between_runs | Never

(* When a node is submitted: before the first run, from the last callback
   of an earlier node (its [on_outcome], or the [on_complete] of a fence or
   delay; the children of a promise or of an unwatched node never appear),
   or between the runs. *)
type trigger = Upfront | After of int | Second_run

type node = {
  op : op;
  label : string;
  attrs : (string * string) list;
  deps : int list;  (* earlier nodes, repeats allowed *)
  trigger : trigger;
  watched : bool;  (* submitted with callbacks *)
}

type script = {
  nodes : node array;
  dynamic : bool;  (* callbacks, a judge and speed factors *)
  speeds : (int * Resource.kind * float) list;  (* set at creation *)
  later_speeds : (int * Resource.kind * float) list;  (* set between runs *)
}

let sites = 4

(* Stretches, drops or partitions tasks by label, sending site and start. *)
let judge_by_label ~site:_ ~kind:_ ~src ~label ~start ~duration =
  match (label, src) with
  | "slow", _ -> Some (duration *. 2.5, None)
  | "lossy", _ -> Some (duration, Some "lost")
  | "ship", Some 0 -> Some (duration +. 1.0, Some "partition")
  | "check", _ when start > 4.0 -> Some (duration +. (start /. 8.0), None)
  | _ -> None

module Play (E : ENGINE) = struct
  (* Everything a script's run reports. *)
  let play ~trace s =
    let e = E.create ~trace () in
    let out = Buffer.create 1024 in
    let n = Array.length s.nodes in
    let handles = Array.make n None in
    let speed (site, kind, factor) = E.set_speed e ~site ~kind ~factor in
    if s.dynamic then E.set_judge e (E.judge judge_by_label);
    List.iter speed s.speeds;
    let rec submit i =
      let nd = s.nodes.(i) in
      let deps = List.filter_map (fun j -> handles.(j)) nd.deps in
      let spawn () =
        Array.iteri (fun c child -> if child.trigger = After i then submit c) s.nodes
      in
      let on_complete () =
        Printf.bprintf out "complete %d at %h\n" i (E.now e);
        Array.iteri
          (fun p q ->
            match (q.op, handles.(p)) with
            | Promise (By j), Some h when j = i -> E.resolve e h
            | _ -> ())
          s.nodes;
        match nd.op with Fence | Delay _ -> spawn () | _ -> ()
      in
      let on_outcome o =
        Printf.bprintf out "outcome %d %s at %h\n" i (E.show o) (E.now e);
        spawn ()
      in
      let on_complete = if nd.watched then Some on_complete else None in
      let on_outcome = if nd.watched then Some on_outcome else None in
      let label = nd.label and attrs = nd.attrs in
      let h =
        match nd.op with
        | Task (site, kind, duration) ->
          E.task e ~deps ?on_complete ?on_outcome ~attrs ~site ~kind ~label ~duration ()
        | Transfer (src, dst, duration) ->
          E.transfer e ~deps ?on_complete ?on_outcome ~attrs ~src ~dst ~label ~duration ()
        | Fence -> E.fence e ~deps ?on_complete ~attrs ~label ()
        | Delay duration -> E.delay e ~deps ?on_complete ~attrs ~label ~duration ()
        | Promise _ -> E.promise e ~label
      in
      handles.(i) <- Some h
    in
    let run () =
      try E.run e
      with E.Stuck lines -> Printf.bprintf out "stuck [%s]\n" (String.concat "; " lines)
    in
    Array.iteri (fun i nd -> if nd.trigger = Upfront then submit i) s.nodes;
    run ();
    List.iter speed s.later_speeds;
    Array.iteri
      (fun i nd ->
        match (nd.op, handles.(i)) with
        | Promise Between_runs, Some h -> E.resolve e h
        | _ -> ())
      s.nodes;
    Array.iteri (fun i nd -> if nd.trigger = Second_run then submit i) s.nodes;
    run ();
    Array.iteri
      (fun i h ->
        match h with
        | None -> Printf.bprintf out "node %d never submitted\n" i
        | Some h when E.finished e h ->
          Printf.bprintf out "node %d finished %h %s\n" i (E.finish_time e h)
            (E.show (E.outcome_of e h))
        | Some _ -> Printf.bprintf out "node %d unfinished\n" i)
      handles;
    let st = E.stats e in
    let busy, makespan = E.totals e in
    Printf.bprintf out "totals %h %h stats %h %h tasks %d\n" busy makespan
      (Stats.total_busy st) (Stats.makespan st) (Stats.task_count st);
    List.iter
      (fun (label, busy, count) -> Printf.bprintf out "label %s %h %d\n" label busy count)
      (Stats.by_label st);
    for site = 0 to sites - 1 do
      List.iter
        (fun kind ->
          Printf.bprintf out "busy site%d/%s %h\n" site (Resource.kind_to_string kind)
            (Stats.busy_of st ~site ~kind))
        Resource.all_kinds
    done;
    List.iter
      (fun (x : Trace.entry) ->
        Printf.bprintf out "#%d %s %s [%h .. %h] deps [%s] attrs [%s]\n" x.tid x.label
          (match (x.site, x.kind) with
          | Some s, Some k -> Printf.sprintf "site%d/%s" s (Resource.kind_to_string k)
          | _ -> "fence")
          x.start x.finish
          (String.concat ";" (List.map string_of_int x.deps))
          (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) x.attrs)))
      (Trace.entries (E.trace e));
    Buffer.contents out
end

module Play_new = Play (New)
module Play_ref = Play (Ref)

let gen_script ~dynamic ~max_nodes =
  QCheck.Gen.(
    let duration = oneofl [ 0.0; 0.0; 0.5; 1.0; 2.0; 3.25; 7.0 ] in
    let site = 0 -- (sites - 1) in
    let gen_speeds =
      if dynamic then
        list_size (0 -- 3)
          (triple site (oneofl Resource.all_kinds) (oneofl [ 0.5; 2.0; 3.0 ]))
      else return []
    in
    let* n = 1 -- max_nodes in
    let node i =
      (* any node but [i] itself; only drawn when there is one *)
      let resolver () =
        frequency
          [
            (6, map (fun j -> By (if j >= i then j + 1 else j)) (0 -- (n - 2)));
            (2, return Between_runs);
            (1, return Never);
          ]
      in
      let* op =
        frequency
          ([
             ( 5,
               map3
                 (fun s k d -> Task (s, k, d))
                 site (oneofl Resource.all_kinds) duration );
             (3, map3 (fun s d dur -> Transfer (s, d, dur)) site site duration);
             (1, return Fence);
             (1, map (fun d -> Delay d) duration);
           ]
          @ if dynamic && n > 1 then [ (2, map (fun r -> Promise r) (resolver ())) ] else [])
      in
      let* label =
        oneofl
          ([ "read"; "eval"; "ship"; "check" ] @ if dynamic then [ "slow"; "lossy" ] else [])
      in
      let* attrs = oneofl [ []; [ ("phase", "O") ]; [ ("phase", "P"); ("db", "DB1") ] ] in
      let* deps =
        match op with
        | Promise _ -> return []
        | _ when i = 0 -> return []
        | _ ->
          let* k = 0 -- 3 in
          list_repeat k (0 -- (i - 1))
      in
      let* trigger =
        if not dynamic then return Upfront
        else
          frequency
            ([ (6, return Upfront); (1, return Second_run) ]
            @ if i > 0 then [ (3, map (fun j -> After j) (0 -- (i - 1))) ] else [])
      in
      let* watched =
        if dynamic then frequencyl [ (3, true); (1, false) ] else return false
      in
      return { op; label; attrs; deps; trigger; watched }
    in
    let* nodes = flatten_l (List.init n node) in
    let* speeds = gen_speeds in
    let* later_speeds = gen_speeds in
    return { nodes = Array.of_list nodes; dynamic; speeds; later_speeds })

let print_script s =
  let speeds l =
    String.concat ", "
      (List.map
         (fun (s, k, f) -> Printf.sprintf "site%d/%s x%g" s (Resource.kind_to_string k) f)
         l)
  in
  String.concat "\n"
    (Printf.sprintf "speeds [%s], later [%s]" (speeds s.speeds) (speeds s.later_speeds)
    :: Array.to_list
         (Array.mapi
            (fun i nd ->
              let op =
                match nd.op with
                | Task (site, kind, d) ->
                  Printf.sprintf "task site%d/%s %g" site (Resource.kind_to_string kind) d
                | Transfer (src, dst, d) -> Printf.sprintf "transfer %d->%d %g" src dst d
                | Fence -> "fence"
                | Delay d -> Printf.sprintf "delay %g" d
                | Promise (By j) -> Printf.sprintf "promise resolved by %d" j
                | Promise Between_runs -> "promise resolved between runs"
                | Promise Never -> "promise never resolved"
              in
              let trigger =
                match nd.trigger with
                | Upfront -> ""
                | After j -> Printf.sprintf " after %d" j
                | Second_run -> " in the second run"
              in
              Printf.sprintf "%d: %s %s deps [%s]%s%s" i op nd.label
                (String.concat ";" (List.map string_of_int nd.deps))
                trigger
                (if nd.watched then "" else " unwatched"))
            s.nodes))

let same s =
  List.iter
    (fun trace ->
      let fresh = Play_new.play ~trace s and reference = Play_ref.play ~trace s in
      if not (String.equal fresh reference) then
        QCheck.Test.fail_reportf "trace %b\nEngine:\n%s\nreference:\n%s" trace fresh
          reference)
    [ true; false ];
  true

let prop_static =
  QCheck.Test.make ~name:"static graphs schedule as the reference" ~count:500
    (QCheck.make ~print:print_script (gen_script ~dynamic:false ~max_nodes:60))
    same

let prop_dynamic =
  QCheck.Test.make ~name:"dynamic graphs run as the reference" ~count:300
    (QCheck.make ~print:print_script (gen_script ~dynamic:true ~max_nodes:40))
    same

(* Graphs past the engine's initial capacity, so its arrays grow. *)
let test_large_graphs () =
  let rand = Random.State.make [| 1996 |] in
  for _ = 1 to 10 do
    let s = QCheck.Gen.generate1 ~rand (gen_script ~dynamic:false ~max_nodes:300) in
    List.iter
      (fun trace ->
        Alcotest.(check string) "Engine matches the reference" (Play_ref.play ~trace s)
          (Play_new.play ~trace s))
      [ true; false ]
  done

let suite =
  [
    QCheck_alcotest.to_alcotest prop_static;
    QCheck_alcotest.to_alcotest prop_dynamic;
    Alcotest.test_case "graphs past the initial capacity" `Quick test_large_graphs;
  ]
