type handle = int

type outcome = Delivered | Dropped of string

type decision = { fault_duration : Time.t; fault_drop : string option }

type judge =
  site:int ->
  kind:Resource.kind ->
  src:int option ->
  label:string ->
  start:Time.t ->
  duration:Time.t ->
  decision option

type totals = { total_busy : Time.t; makespan : Time.t }

(* What only some tasks carry: the sending site a judge sees, completion
   callbacks and the reason a judge dropped the task. Every other task
   shares [plain]. *)
type extra = {
  src : int option;
  on_complete : (unit -> unit) option;
  on_outcome : (outcome -> unit) option;
  drop : string option;
}

let plain = { src = None; on_complete = None; on_outcome = None; drop = None }

(* The clock and the run's two totals, in a record of floats so that
   updating them allocates nothing. *)
type clock = {
  mutable now : float;
  mutable busy : float;
  mutable makespan : float;
}

(* Task [i] is column [i] of the parallel arrays.

   - [res] is the resource the task occupies, [3 * site + kind], or
     [no_resource] (fence, delay) or [unresolved] (promise).
   - [pending] counts unfinished dependencies: 0 once the task is eligible,
     [ended] once it has completed.
   - [next] links each resource's FIFO, from its running task [rhead] to
     [rtail]. Once a task has finished, its link is dead and [next] chains
     the completion order instead, from [first_done] to [last_done].
   - Edge [e] is one listing of a dependency that was unfinished at
     submission: [owner.(e)] waits for it, and [enext.(e)] is the previous
     listing of the same dependency. [dhead] holds each task's newest
     listing.
   - [start], [attrs] and [deps] serve only the trace, and stay empty
     without one. *)
type t = {
  tracing : bool;
  mutable n : int;
  mutable res : int array;
  mutable label : string array;
  mutable dur : float array;
  mutable finish : float array;
  mutable pending : int array;
  mutable next : int array;
  mutable dhead : int array;
  mutable extra : extra array;
  mutable start : float array;
  mutable attrs : (string * string) list array;
  mutable deps : handle list array;
  mutable n_edges : int;
  mutable owner : int array;
  mutable enext : int array;
  mutable rhead : int array;
  mutable rtail : int array;
  mutable speed : float array;  (* empty until a factor is set *)
  events : int Heap.t;  (* completion events, keyed by finish time *)
  clock : clock;
  mutable unfinished : int;
  mutable first_done : int;
  mutable last_done : int;
  mutable judge : judge option;
  mutable completing : int;
      (* the task whose completion callbacks are running: a promise
         resolved from inside one records it as its trace parent *)
}

exception Stuck of string list

let no_resource = -1
let unresolved = -2
let ended = -1

(* Room for 48 tasks, 48 dependency listings and four sites before the
   first growth: the parametric simulator's graphs on three databases, the
   paper's default, fit. *)
let create ?(trace = false) () =
  let column fill = Array.make 48 fill in
  let traced fill = if trace then column fill else [||] in
  {
    tracing = trace;
    n = 0;
    res = column 0;
    label = column "";
    dur = column 0.0;
    finish = column 0.0;
    pending = column 0;
    next = column 0;
    dhead = column 0;
    extra = column plain;
    start = traced 0.0;
    attrs = traced [];
    deps = traced [];
    n_edges = 0;
    owner = column 0;
    enext = column 0;
    rhead = Array.make 12 (-1);
    rtail = Array.make 12 (-1);
    speed = [||];
    events = Heap.create ();
    clock = { now = 0.0; busy = 0.0; makespan = 0.0 };
    unfinished = 0;
    first_done = -1;
    last_done = -1;
    judge = None;
    completing = -1;
  }

(* [a] lengthened to [len], the fresh cells set to [fill]. *)
let extend a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow a fill = extend a (2 * Array.length a) fill

let kind_index = function Resource.Cpu -> 0 | Resource.Disk -> 1 | Resource.Link -> 2

let kind_of r =
  match r mod 3 with 0 -> Resource.Cpu | 1 -> Resource.Disk | _ -> Resource.Link

(* The index of [kind] at [site], after making room for it. *)
let resource t ~site kind =
  let r = (3 * site) + kind_index kind in
  if r >= Array.length t.rhead then begin
    let len = max (r + 1) (2 * Array.length t.rhead) in
    t.rhead <- extend t.rhead len (-1);
    t.rtail <- extend t.rtail len (-1)
  end;
  r

let now t = t.clock.now
let totals t = { total_busy = t.clock.busy; makespan = t.clock.makespan }
let set_judge t judge = t.judge <- Some judge

let set_speed t ~site ~kind ~factor =
  if not (Float.is_finite factor) || factor <= 0.0 then
    invalid_arg "Engine.set_speed: factor must be positive and finite";
  if site < 0 then invalid_arg (Printf.sprintf "Engine.set_speed: negative site %d" site);
  let r = resource t ~site kind in
  if r >= Array.length t.speed then t.speed <- extend t.speed (Array.length t.rhead) 1.0;
  t.speed.(r) <- factor

(* Schedules the completion event of task [i], which starts right now. The
   site's speed factor scales the duration; the scaled duration is what the
   statistics account (it is the time the resource is busy). An installed
   judge sees the scaled duration and may stretch it (latency inflation)
   and doom the task: a doomed task still occupies its resource for the
   full duration and completes [Dropped] at its would-be finish time — the
   receiver never learns earlier that a message is lost. *)
let launch t i =
  let now = t.clock.now in
  if t.tracing then t.start.(i) <- now;
  let r = t.res.(i) in
  if r >= 0 then begin
    if r < Array.length t.speed then t.dur.(i) <- t.dur.(i) /. t.speed.(r);
    match t.judge with
    | None -> ()
    | Some judge -> (
      let x = t.extra.(i) in
      match
        judge ~site:(r / 3) ~kind:(kind_of r) ~src:x.src ~label:t.label.(i)
          ~start:now ~duration:t.dur.(i)
      with
      | None -> ()
      | Some { fault_duration; fault_drop } ->
        if not (Float.is_finite fault_duration) || fault_duration < 0.0 then
          invalid_arg
            (Printf.sprintf "Engine: judge gave task %S invalid duration %g"
               t.label.(i) fault_duration);
        t.dur.(i) <- fault_duration;
        if fault_drop <> None then t.extra.(i) <- { x with drop = fault_drop })
  end;
  let f = now +. t.dur.(i) in
  t.finish.(i) <- f;
  Heap.push t.events ~priority:f i

(* Task [i]'s dependencies have all finished: it grabs its resource or
   joins the resource's FIFO. *)
let activate t i =
  let r = t.res.(i) in
  if r < 0 then launch t i
  else if t.rhead.(r) < 0 then begin
    t.rhead.(r) <- i;
    t.rtail.(r) <- i;
    launch t i
  end
  else begin
    t.next.(t.rtail.(r)) <- i;
    t.rtail.(r) <- i
  end

(* Appends a task with no unfinished dependency yet. *)
let add t ~res ~label ~duration ~attrs ~deps ~extra =
  let i = t.n in
  if i = Array.length t.res then begin
    t.res <- grow t.res 0;
    t.label <- grow t.label "";
    t.dur <- grow t.dur 0.0;
    t.finish <- grow t.finish 0.0;
    t.pending <- grow t.pending 0;
    t.next <- grow t.next 0;
    t.dhead <- grow t.dhead 0;
    t.extra <- grow t.extra plain;
    t.start <- grow t.start 0.0;
    t.attrs <- grow t.attrs [];
    t.deps <- grow t.deps []
  end;
  t.res.(i) <- res;
  t.label.(i) <- label;
  t.dur.(i) <- duration;
  t.pending.(i) <- 0;
  t.next.(i) <- -1;
  t.dhead.(i) <- -1;
  t.extra.(i) <- extra;
  if t.tracing then begin
    t.attrs.(i) <- attrs;
    t.deps.(i) <- deps
  end;
  t.n <- i + 1;
  t.unfinished <- t.unfinished + 1;
  i

(* Chains task [i] onto each unfinished dependency, once per listing. *)
let rec wait_for t i = function
  | [] -> ()
  | d :: rest ->
    if t.pending.(d) <> ended then begin
      let e = t.n_edges in
      if e = Array.length t.owner then begin
        t.owner <- grow t.owner 0;
        t.enext <- grow t.enext 0
      end;
      t.owner.(e) <- i;
      t.enext.(e) <- t.dhead.(d);
      t.dhead.(d) <- e;
      t.n_edges <- e + 1;
      t.pending.(i) <- t.pending.(i) + 1
    end;
    wait_for t i rest

let submit t ~deps ~attrs ~extra ~res ~label ~duration =
  if not (Float.is_finite duration) || duration < 0.0 then
    invalid_arg (Printf.sprintf "Engine: task %S has invalid duration %g" label duration);
  let i = add t ~res ~label ~duration ~attrs ~deps ~extra in
  wait_for t i deps;
  if t.pending.(i) = 0 then activate t i;
  i

let extra_of src on_complete on_outcome =
  match (src, on_complete, on_outcome) with
  | None, None, None -> plain
  | _ -> { src; on_complete; on_outcome; drop = None }

let on_site t ~site ~kind ~label =
  if site < 0 then
    invalid_arg (Printf.sprintf "Engine: task %S has negative site %d" label site);
  resource t ~site kind

let task t ?(deps = []) ?on_complete ?on_outcome ?(attrs = []) ~site ~kind ~label
    ~duration () =
  submit t ~deps ~attrs ~extra:(extra_of None on_complete on_outcome)
    ~res:(on_site t ~site ~kind ~label) ~label ~duration

let transfer t ?(deps = []) ?on_complete ?on_outcome ?(attrs = []) ~src ~dst ~label
    ~duration () =
  if src = dst then
    submit t ~deps ~attrs ~extra:(extra_of None on_complete on_outcome)
      ~res:no_resource ~label ~duration:0.0
  else
    submit t ~deps ~attrs ~extra:(extra_of (Some src) on_complete on_outcome)
      ~res:(on_site t ~site:dst ~kind:Resource.Link ~label) ~label ~duration

let fence t ?(deps = []) ?on_complete ?(attrs = []) ~label () =
  submit t ~deps ~attrs ~extra:(extra_of None on_complete None) ~res:no_resource
    ~label ~duration:0.0

let delay t ?(deps = []) ?on_complete ?(attrs = []) ~label ~duration () =
  submit t ~deps ~attrs ~extra:(extra_of None on_complete None) ~res:no_resource
    ~label ~duration

let promise t ~label =
  let i = add t ~res:unresolved ~label ~duration:0.0 ~attrs:[] ~deps:[] ~extra:plain in
  t.pending.(i) <- 1;  (* the one pending "dependency" is [resolve] *)
  i

let resolve t h =
  if t.res.(h) <> unresolved then
    invalid_arg (Printf.sprintf "Engine.resolve: task %S is not a promise" t.label.(h));
  if t.pending.(h) <> 1 then
    invalid_arg (Printf.sprintf "Engine.resolve: promise %S already resolved" t.label.(h));
  (* A promise resolved from inside a completion callback is causally
     downstream of the completing task; record the edge for the trace. *)
  if t.tracing && t.completing >= 0 then t.deps.(h) <- [ t.completing ];
  t.pending.(h) <- 0;
  activate t h

let finished t h = t.pending.(h) = ended

let finish_time t h =
  if finished t h then t.finish.(h)
  else invalid_arg (Printf.sprintf "Engine.finish_time: task %S not finished" t.label.(h))

let outcome x = match x.drop with None -> Delivered | Some reason -> Dropped reason

let outcome_of t h =
  if finished t h then outcome t.extra.(h)
  else invalid_arg (Printf.sprintf "Engine.outcome_of: task %S not finished" t.label.(h))

(* Releases the listings chained from [e]. The chain runs newest first, so
   releasing after the recursive call unblocks dependents in submission
   order (a dependency listed twice counts twice). *)
let rec release t e =
  if e >= 0 then begin
    release t t.enext.(e);
    let o = t.owner.(e) in
    t.pending.(o) <- t.pending.(o) - 1;
    if t.pending.(o) = 0 then activate t o
  end

(* A finishing task hands its resource to the next queued task, then
   unblocks its dependents, then runs its callbacks. A dropped task still
   unblocks its dependents: the failure travels through [on_outcome], and
   retry chains are modelled as fresh tasks, not as re-runs of this one. *)
let complete t i =
  t.pending.(i) <- ended;
  t.unfinished <- t.unfinished - 1;
  let c = t.clock in
  let f = t.finish.(i) in
  if not (c.makespan >= f) then c.makespan <- f;
  let following = t.next.(i) in
  t.next.(i) <- -1;
  if t.last_done < 0 then t.first_done <- i else t.next.(t.last_done) <- i;
  t.last_done <- i;
  let r = t.res.(i) in
  if r >= 0 then begin
    c.busy <- c.busy +. t.dur.(i);
    t.rhead.(r) <- following;
    if following >= 0 then launch t following
  end;
  release t t.dhead.(i);
  let x = t.extra.(i) in
  if x != plain then begin
    t.completing <- i;
    (match x.on_complete with Some f -> f () | None -> ());
    (match x.on_outcome with Some f -> f (outcome x) | None -> ());
    t.completing <- -1
  end

let where t i =
  let r = t.res.(i) in
  if r < 0 then "fence"
  else Printf.sprintf "site %d %s" (r / 3) (Resource.kind_to_string (kind_of r))

(* Describes every task that can never finish: its own label and site plus
   the labels (and sites) of the dependencies it is still waiting for, so a
   deadlock introduced by a failed or never-resolved task names the culprit
   instead of just the victim. *)
let stuck_descriptions t =
  let waits = ref [] in
  for d = 0 to t.n - 1 do
    if t.pending.(d) <> ended then begin
      let e = ref t.dhead.(d) in
      while !e >= 0 do
        waits := (t.owner.(!e), !e, d) :: !waits;
        e := t.enext.(!e)
      done
    end
  done;
  let waits = List.sort compare !waits in
  let name i = Printf.sprintf "%s (%s)" t.label.(i) (where t i) in
  List.filter_map
    (fun i ->
      let p = t.pending.(i) and r = t.res.(i) in
      if p = ended then None
      else if p = 0 && r >= 0 && t.rhead.(r) <> i then
        Some (name i ^ ": queued behind the running task")
      else if p = 0 then Some (name i ^ ": running")
      else if r = unresolved then Some (name i ^ ": promise never resolved")
      else
        let unmet =
          List.filter_map (fun (o, _, d) -> if o = i then Some (name d) else None) waits
        in
        Some (Printf.sprintf "%s: awaiting %s" (name i) (String.concat ", " unmet)))
    (List.init t.n Fun.id)

let run t =
  let c = t.clock in
  while not (Heap.is_empty t.events) do
    let i = Heap.pop t.events in
    let f = t.finish.(i) in
    if not (c.now >= f) then c.now <- f;
    complete t i
  done;
  if t.unfinished > 0 then raise (Stuck (stuck_descriptions t))

(* Calls [f] on every finished task, in completion order. *)
let iter_done t f =
  let i = ref t.first_done in
  while !i >= 0 do
    f !i;
    i := t.next.(!i)
  done

let stats t =
  let st = Stats.create () in
  iter_done t (fun i ->
      let r = t.res.(i) in
      if r >= 0 then
        Stats.record st ~site:(r / 3) ~kind:(kind_of r) ~label:t.label.(i)
          ~duration:t.dur.(i) ~finish:t.finish.(i)
      else Stats.record_fence st ~finish:t.finish.(i));
  st

let trace t =
  let tr = Trace.create ~enabled:t.tracing in
  if t.tracing then
    iter_done t (fun i ->
        let r = t.res.(i) in
        Trace.add tr
          {
            Trace.tid = i;
            label = t.label.(i);
            site = (if r >= 0 then Some (r / 3) else None);
            kind = (if r >= 0 then Some (kind_of r) else None);
            start = t.start.(i);
            finish = t.finish.(i);
            deps = t.deps.(i);
            attrs =
              (match t.extra.(i).drop with
              | None -> t.attrs.(i)
              | Some reason -> ("dropped", reason) :: t.attrs.(i));
          });
  tr
