type handle = int

type totals = { total_busy : Time.t; makespan : Time.t }

(* Task [i] is column [i] of the parallel arrays; its dependencies are
   [deps.(dep_end.(i-1)) .. deps.(dep_end.(i) - 1)] (from 0 for task 0).
   [start], [finish] and [order] are filled by [run]. *)
type t = {
  mutable n : int;
  mutable site : int array;  (* -1: no resource (fence or delay) *)
  mutable kind : Resource.kind array;
  mutable duration : float array;
  mutable label : string array;
  mutable attrs : (string * string) list array;
  mutable dep_end : int array;
  mutable deps : int array;
  mutable n_deps : int;
  mutable start : float array;
  mutable finish : float array;
  mutable order : int array;  (* task indices in completion order *)
  mutable ran : bool;
  mutable n_res : int;  (* 3 * (largest site + 1): the resource count *)
}

(* Room for 64 tasks and 64 dependencies before the first [grow]: the
   parametric simulator's graphs on up to three databases fit. *)
let create () =
  {
    n = 0;
    site = Array.make 64 0;
    kind = Array.make 64 Resource.Cpu;
    duration = Array.make 64 0.0;
    label = Array.make 64 "";
    attrs = Array.make 64 [];
    dep_end = Array.make 64 0;
    deps = Array.make 64 0;
    n_deps = 0;
    start = [||];
    finish = [||];
    order = [||];
    ran = false;
    n_res = 0;
  }

(* [a] doubled, the fresh cells set to [fill]. *)
let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Appends [deps] to the flat array. An unknown handle drops the ones
   already appended (back to [mark]) before raising, so a rejected task
   leaves nothing behind. *)
let rec add_deps t i mark = function
  | [] -> ()
  | d :: rest ->
    if d < 0 || d >= i then begin
      t.n_deps <- mark;
      invalid_arg (Printf.sprintf "Dag: task %d depends on unknown task %d" i d)
    end;
    if t.n_deps = Array.length t.deps then t.deps <- grow t.deps 0;
    t.deps.(t.n_deps) <- d;
    t.n_deps <- t.n_deps + 1;
    add_deps t i mark rest

let check_duration label duration =
  if not (Float.is_finite duration) || duration < 0.0 then
    invalid_arg
      (Printf.sprintf "Dag: task %S has invalid duration %g" label duration)

let add t ~deps ~attrs ~site ~kind ~label ~duration =
  if t.ran then invalid_arg "Dag: the graph has already run";
  let i = t.n in
  add_deps t i t.n_deps deps;
  if i = Array.length t.site then begin
    t.site <- grow t.site 0;
    t.kind <- grow t.kind Resource.Cpu;
    t.duration <- grow t.duration 0.0;
    t.label <- grow t.label "";
    t.attrs <- grow t.attrs [];
    t.dep_end <- grow t.dep_end 0
  end;
  t.site.(i) <- site;
  if 3 * (site + 1) > t.n_res then t.n_res <- 3 * (site + 1);
  t.kind.(i) <- kind;
  t.duration.(i) <- duration;
  t.label.(i) <- label;
  t.attrs.(i) <- attrs;
  t.dep_end.(i) <- t.n_deps;
  t.n <- i + 1;
  i

let task t ?(deps = []) ?(attrs = []) ~site ~kind ~label ~duration () =
  check_duration label duration;
  if site < 0 then invalid_arg (Printf.sprintf "Dag: task %S has negative site %d" label site);
  add t ~deps ~attrs ~site ~kind ~label ~duration

let fence t ?(deps = []) ?(attrs = []) ~label () =
  add t ~deps ~attrs ~site:(-1) ~kind:Resource.Cpu ~label ~duration:Time.zero

let delay t ?(deps = []) ?(attrs = []) ~label ~duration () =
  check_duration label duration;
  add t ~deps ~attrs ~site:(-1) ~kind:Resource.Cpu ~label ~duration

let transfer t ?deps ?attrs ~src ~dst ~label ~duration () =
  if src = dst then fence t ?deps ?attrs ~label ()
  else task t ?deps ?attrs ~site:dst ~kind:Resource.Link ~label ~duration ()

let first_dep t i = if i = 0 then 0 else t.dep_end.(i - 1)

let kind_index = function Resource.Cpu -> 0 | Resource.Disk -> 1 | Resource.Link -> 2

let run t =
  if t.ran then invalid_arg "Dag.run: the graph has already run";
  let n = t.n in
  (* Dependents in compressed rows: task [d]'s are
     [dependents.(first.(d)) .. dependents.(first.(d + 1) - 1)], in
     submission order, once per listing. [pending] counts unfinished
     dependencies the same way. *)
  let first = Array.make (n + 1) 0 in
  for e = 0 to t.n_deps - 1 do
    let d = t.deps.(e) in
    first.(d + 1) <- first.(d + 1) + 1
  done;
  for i = 1 to n do
    first.(i) <- first.(i) + first.(i - 1)
  done;
  (* Fill each row with [first.(d)] as its cursor, then shift the cursors,
     which now hold each row's end, back into starts. *)
  let dependents = Array.make t.n_deps 0 in
  let pending = Array.make n 0 in
  for i = 0 to n - 1 do
    let lo = first_dep t i in
    pending.(i) <- t.dep_end.(i) - lo;
    for e = lo to t.dep_end.(i) - 1 do
      let d = t.deps.(e) in
      dependents.(first.(d)) <- i;
      first.(d) <- first.(d) + 1
    done
  done;
  for d = n downto 1 do
    first.(d) <- first.(d - 1)
  done;
  first.(0) <- 0;
  (* Resource [3 * site + kind_index kind] holds a FIFO queue linked
     through [next], from [head] (the running task) to [tail]; [head] is
     -1 while the resource is idle. *)
  let head = Array.make t.n_res (-1) and tail = Array.make t.n_res (-1) in
  let next = Array.make n (-1) in
  let start = Array.make n 0.0 and finish = Array.make n 0.0 in
  let events = Heap.create () in
  (* The current instant, in a float array so that updating it allocates
     nothing. The loop below spells out Time.add and Time.max as float
     operations, so that no float is boxed to cross a module boundary. *)
  let clock = [| 0.0 |] in
  let launch i =
    let now = clock.(0) in
    start.(i) <- now;
    let f = now +. t.duration.(i) in
    finish.(i) <- f;
    Heap.push events ~priority:f i
  in
  let activate i =
    let s = t.site.(i) in
    if s < 0 then launch i
    else begin
      let r = (3 * s) + kind_index t.kind.(i) in
      if head.(r) < 0 then begin
        head.(r) <- i;
        tail.(r) <- i;
        launch i
      end
      else begin
        next.(tail.(r)) <- i;
        tail.(r) <- i
      end
    end
  in
  for i = 0 to n - 1 do
    if pending.(i) = 0 then activate i
  done;
  let order = Array.make n 0 in
  let completed = ref 0 in
  let total_busy = ref 0.0 and makespan = ref 0.0 in
  while not (Heap.is_empty events) do
    let i = Heap.pop events in
    let f = finish.(i) in
    clock.(0) <- f;
    order.(!completed) <- i;
    incr completed;
    if not (!makespan >= f) then makespan := f;
    let s = t.site.(i) in
    if s >= 0 then begin
      total_busy := !total_busy +. t.duration.(i);
      (* Hand the resource to the next queued task. *)
      let r = (3 * s) + kind_index t.kind.(i) in
      let following = next.(i) in
      head.(r) <- following;
      if following >= 0 then launch following
    end;
    for e = first.(i) to first.(i + 1) - 1 do
      let d = dependents.(e) in
      pending.(d) <- pending.(d) - 1;
      if pending.(d) = 0 then activate d
    done
  done;
  t.start <- start;
  t.finish <- finish;
  t.order <- order;
  t.ran <- true;
  { total_busy = !total_busy; makespan = !makespan }

let require_run t fn =
  if not t.ran then invalid_arg (Printf.sprintf "Dag.%s: the graph has not run" fn)

let stats t =
  require_run t "stats";
  let st = Stats.create () in
  Array.iter
    (fun i ->
      if t.site.(i) >= 0 then
        Stats.record st ~site:t.site.(i) ~kind:t.kind.(i) ~label:t.label.(i)
          ~duration:t.duration.(i) ~finish:t.finish.(i)
      else Stats.record_fence st ~finish:t.finish.(i))
    t.order;
  st

let trace t =
  require_run t "trace";
  let tr = Trace.create ~enabled:true in
  Array.iter
    (fun i ->
      let lo = first_dep t i in
      let s = t.site.(i) in
      Trace.add tr
        {
          Trace.tid = i;
          label = t.label.(i);
          site = (if s >= 0 then Some s else None);
          kind = (if s >= 0 then Some t.kind.(i) else None);
          start = t.start.(i);
          finish = t.finish.(i);
          deps = Array.to_list (Array.sub t.deps lo (t.dep_end.(i) - lo));
          attrs = t.attrs.(i);
        })
    t.order;
  tr
