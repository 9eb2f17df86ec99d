(* The discrete-event engine as it stood before it moved onto flat arrays,
   kept verbatim as the reference that [Test_engine_ref] checks the
   runner against. It shares no scheduling code with [Msdq_simkit.Engine]:
   tasks are records with closure lists, resources and speed factors sit
   in tuple-keyed Hashtbls, and statistics and trace entries are recorded
   eagerly at each completion. *)

open Msdq_simkit

type where =
  | On of int * Resource.kind  (* occupies a resource of a site *)
  | Nowhere                    (* fence or pure delay *)

type state =
  | Blocked of int  (* number of unfinished dependencies *)
  | Queued
  | Running
  | Finished

type outcome = Delivered | Dropped of string

type task = {
  tid : int;
  label : string;
  where : where;
  src : int option;  (* sending site, for transfers; judges see it *)
  attrs : (string * string) list;
  mutable duration : Time.t;
  mutable state : state;
  mutable dependents : task list;
  mutable callbacks : (unit -> unit) list;  (* reversed registration order *)
  mutable outcome_callbacks : (outcome -> unit) list;
  mutable start_time : Time.t;
  mutable finish_time : Time.t;
  mutable drop : string option;  (* set by the fault judge at start time *)
  mutable awaiting : task list;  (* unfinished deps, for stuck diagnostics *)
  mutable dep_tids : int list;  (* causal parents, for the trace *)
  is_promise : bool;
}

type handle = task

type decision = { fault_duration : Time.t; fault_drop : string option }

type judge =
  site:int ->
  kind:Resource.kind ->
  src:int option ->
  label:string ->
  start:Time.t ->
  duration:Time.t ->
  decision option

(* One FIFO resource instance: at most one running task, the rest queued. *)
type rsrc = { mutable current : task option; waiting : task Queue.t }

type t = {
  mutable clock : Time.t;
  events : task Heap.t;  (* completion events, keyed by finish time *)
  resources : (int * Resource.kind, rsrc) Hashtbl.t;
  speeds : (int * Resource.kind, float) Hashtbl.t;
  stats : Stats.t;
  trace : Trace.t;
  mutable next_tid : int;
  mutable unfinished : int;
  live : (int, task) Hashtbl.t;  (* every unfinished task, by tid *)
  mutable judge : judge option;
  mutable completing : int option;
      (* tid of the task whose completion callbacks are running: a promise
         resolved from inside one inherits it as its causal parent *)
}

exception Stuck of string list

let create ?(trace = false) () =
  {
    clock = Time.zero;
    events = Heap.create ();
    resources = Hashtbl.create 16;
    speeds = Hashtbl.create 8;
    stats = Stats.create ();
    trace = Trace.create ~enabled:trace;
    next_tid = 0;
    unfinished = 0;
    live = Hashtbl.create 64;
    judge = None;
    completing = None;
  }

let now t = t.clock
let stats t = t.stats
let trace t = t.trace

let set_judge t judge = t.judge <- Some judge

let set_speed t ~site ~kind ~factor =
  if not (Float.is_finite factor) || factor <= 0.0 then
    invalid_arg "Engine.set_speed: factor must be positive and finite";
  Hashtbl.replace t.speeds (site, kind) factor

let speed_of t task =
  match task.where with
  | Nowhere -> 1.0
  | On (site, kind) -> (
    match Hashtbl.find_opt t.speeds (site, kind) with
    | Some f -> f
    | None -> 1.0)

let resource t site kind =
  match Hashtbl.find_opt t.resources (site, kind) with
  | Some r -> r
  | None ->
    let r = { current = None; waiting = Queue.create () } in
    Hashtbl.add t.resources (site, kind) r;
    r

(* Schedules the completion event of [task], which starts right now. The
   site's speed factor scales the effective duration; the scaled duration is
   what the statistics account (it is the time the resource is busy). When a
   fault judge is installed it sees the scaled duration and may stretch it
   (latency inflation) and doom the task: a doomed task still occupies its
   resource for the full (possibly stretched) duration and is reported
   [Dropped] at its would-be finish time — the receiver never learns earlier
   that a message is lost. *)
let start t task =
  task.state <- Running;
  task.start_time <- t.clock;
  let factor = speed_of t task in
  if factor <> 1.0 then task.duration <- Time.us (Time.to_us task.duration /. factor);
  (match (t.judge, task.where) with
  | Some judge, On (site, kind) -> (
    match
      judge ~site ~kind ~src:task.src ~label:task.label ~start:t.clock
        ~duration:task.duration
    with
    | None -> ()
    | Some { fault_duration; fault_drop } ->
      if not (Time.is_finite fault_duration) || fault_duration < Time.zero then
        invalid_arg
          (Printf.sprintf "Engine: judge gave task %S invalid duration %g"
             task.label fault_duration);
      task.duration <- fault_duration;
      task.drop <- fault_drop)
  | _ -> ());
  let finish = Time.add t.clock task.duration in
  task.finish_time <- finish;
  Heap.push t.events ~priority:finish task

(* Called when all dependencies of [task] are finished: either grab the
   resource immediately or join its FIFO queue. *)
let activate t task =
  match task.where with
  | Nowhere -> start t task
  | On (site, kind) ->
    let r = resource t site kind in
    (match r.current with
    | None ->
      r.current <- Some task;
      start t task
    | Some _ ->
      task.state <- Queued;
      Queue.add task r.waiting)

let submit t ?(deps = []) ?on_complete ?on_outcome ?(attrs = []) ?src ~where
    ~label ~duration () =
  if not (Time.is_finite duration) || duration < Time.zero then
    invalid_arg
      (Printf.sprintf "Engine: task %S has invalid duration %g" label duration);
  let task =
    {
      tid = t.next_tid;
      label;
      where;
      src;
      attrs;
      duration;
      state = Blocked 0;
      dependents = [];
      callbacks = (match on_complete with None -> [] | Some f -> [ f ]);
      outcome_callbacks = (match on_outcome with None -> [] | Some f -> [ f ]);
      start_time = Time.zero;
      finish_time = Time.zero;
      drop = None;
      awaiting = [];
      dep_tids = List.map (fun d -> d.tid) deps;
      is_promise = false;
    }
  in
  t.next_tid <- t.next_tid + 1;
  t.unfinished <- t.unfinished + 1;
  Hashtbl.add t.live task.tid task;
  let pending =
    List.fold_left
      (fun n dep ->
        match dep.state with
        | Finished -> n
        | Blocked _ | Queued | Running ->
          dep.dependents <- task :: dep.dependents;
          task.awaiting <- dep :: task.awaiting;
          n + 1)
      0 deps
  in
  if pending = 0 then activate t task else task.state <- Blocked pending;
  task

let task t ?deps ?on_complete ?on_outcome ?attrs ~site ~kind ~label ~duration () =
  submit t ?deps ?on_complete ?on_outcome ?attrs ~where:(On (site, kind)) ~label
    ~duration ()

let transfer t ?deps ?on_complete ?on_outcome ?attrs ~src ~dst ~label ~duration () =
  if src = dst then
    submit t ?deps ?on_complete ?on_outcome ?attrs ~where:Nowhere ~label
      ~duration:Time.zero ()
  else
    submit t ?deps ?on_complete ?on_outcome ?attrs ~src
      ~where:(On (dst, Resource.Link)) ~label ~duration ()

let fence t ?deps ?on_complete ?attrs ~label () =
  submit t ?deps ?on_complete ?attrs ~where:Nowhere ~label ~duration:Time.zero ()

let delay t ?deps ?on_complete ?attrs ~label ~duration () =
  submit t ?deps ?on_complete ?attrs ~where:Nowhere ~label ~duration ()

let promise t ~label =
  let task =
    {
      tid = t.next_tid;
      label;
      where = Nowhere;
      src = None;
      attrs = [];
      duration = Time.zero;
      state = Blocked 1;  (* the one pending "dependency" is [resolve] *)
      dependents = [];
      callbacks = [];
      outcome_callbacks = [];
      start_time = Time.zero;
      finish_time = Time.zero;
      drop = None;
      awaiting = [];
      dep_tids = [];
      is_promise = true;
    }
  in
  t.next_tid <- t.next_tid + 1;
  t.unfinished <- t.unfinished + 1;
  Hashtbl.add t.live task.tid task;
  task

let resolve t task =
  if not task.is_promise then
    invalid_arg
      (Printf.sprintf "Engine.resolve: task %S is not a promise" task.label);
  match task.state with
  | Blocked 1 ->
    (* A promise resolved from inside a completion callback is causally
       downstream of the completing task; record the edge for the trace. *)
    (match t.completing with
    | Some tid -> task.dep_tids <- tid :: task.dep_tids
    | None -> ());
    activate t task
  | Blocked _ | Queued | Running | Finished ->
    invalid_arg
      (Printf.sprintf "Engine.resolve: promise %S already resolved" task.label)

let finished _t task = task.state = Finished

let finish_time _t task =
  match task.state with
  | Finished -> task.finish_time
  | Blocked _ | Queued | Running ->
    invalid_arg (Printf.sprintf "Engine.finish_time: task %S not finished" task.label)

let outcome_of _t task =
  match task.state with
  | Finished -> (
    match task.drop with None -> Delivered | Some reason -> Dropped reason)
  | Blocked _ | Queued | Running ->
    invalid_arg (Printf.sprintf "Engine.outcome_of: task %S not finished" task.label)

let complete t task =
  task.state <- Finished;
  t.unfinished <- t.unfinished - 1;
  t.completing <- Some task.tid;
  Hashtbl.remove t.live task.tid;
  let trace_attrs =
    match task.drop with
    | None -> task.attrs
    | Some reason -> ("dropped", reason) :: task.attrs
  in
  (match task.where with
  | On (site, kind) ->
    Stats.record t.stats ~site ~kind ~label:task.label ~duration:task.duration
      ~finish:task.finish_time;
    Trace.addf t.trace (fun () ->
        {
          Trace.tid = task.tid;
          label = task.label;
          site = Some site;
          kind = Some kind;
          start = task.start_time;
          finish = task.finish_time;
          deps = task.dep_tids;
          attrs = trace_attrs;
        });
    (* Hand the resource to the next queued task. *)
    let r = resource t site kind in
    r.current <- None;
    (match Queue.take_opt r.waiting with
    | None -> ()
    | Some next ->
      r.current <- Some next;
      start t next)
  | Nowhere ->
    Stats.record_fence t.stats ~finish:task.finish_time;
    Trace.addf t.trace (fun () ->
        {
          Trace.tid = task.tid;
          label = task.label;
          site = None;
          kind = None;
          start = task.start_time;
          finish = task.finish_time;
          deps = task.dep_tids;
          attrs = trace_attrs;
        }));
  (* Unblock dependents in submission order (they were consed in reverse).
     A dropped task still unblocks its dependents: the failure is signalled
     through the outcome callbacks, and retry chains are modelled as fresh
     tasks, not as re-runs of this one. *)
  let dependents = List.rev task.dependents in
  task.dependents <- [];
  let unblock dep =
    match dep.state with
    | Blocked 1 -> activate t dep
    | Blocked n -> dep.state <- Blocked (n - 1)
    | Queued | Running | Finished -> assert false
  in
  List.iter unblock dependents;
  List.iter (fun f -> f ()) (List.rev task.callbacks);
  (match task.outcome_callbacks with
  | [] -> ()
  | cbs ->
    let outcome =
      match task.drop with None -> Delivered | Some reason -> Dropped reason
    in
    List.iter (fun f -> f outcome) (List.rev cbs));
  t.completing <- None

let drain t =
  while not (Heap.is_empty t.events) do
    let task = Heap.pop t.events in
    t.clock <- Time.max t.clock task.finish_time;
    complete t task
  done

let where_to_string = function
  | Nowhere -> "fence"
  | On (site, kind) ->
    Printf.sprintf "site %d %s" site (Resource.kind_to_string kind)

(* Describes every task that can never finish: its own label and site plus
   the labels (and sites) of the dependencies it is still waiting for, so a
   deadlock introduced by a failed or never-resolved task names the culprit
   instead of just the victim. *)
let stuck_descriptions t =
  let tasks =
    Hashtbl.fold (fun _ task acc -> task :: acc) t.live []
    |> List.sort (fun a b -> compare a.tid b.tid)
  in
  List.map
    (fun task ->
      let self = Printf.sprintf "%s (%s)" task.label (where_to_string task.where) in
      match task.state with
      | Running -> self ^ ": running"
      | Queued -> self ^ ": queued behind the running task"
      | Finished -> assert false
      | Blocked _ when task.is_promise -> self ^ ": promise never resolved"
      | Blocked n ->
        let unmet =
          List.filter (fun dep -> dep.state <> Finished) (List.rev task.awaiting)
        in
        let names =
          List.map
            (fun dep ->
              Printf.sprintf "%s (%s)" dep.label (where_to_string dep.where))
            unmet
        in
        let names =
          (* Dependencies are recorded at submission; a dependency created
             before tracking began (or an inconsistent count) still reports
             honestly. *)
          if names = [] then [ Printf.sprintf "%d untracked dependenc(ies)" n ]
          else names
        in
        Printf.sprintf "%s: awaiting %s" self (String.concat ", " names))
    tasks

let run t =
  drain t;
  if t.unfinished > 0 then raise (Stuck (stuck_descriptions t))
