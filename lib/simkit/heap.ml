(* Parallel-array layout: priorities live in a flat [float array] (unboxed
   elements), sequence numbers in an [int array], payloads in an
   ['a array]. The sift loops are plain loops over indices, with no local
   closures, and [pop] returns the bare payload, so neither push nor pop
   allocates once the arrays have grown to capacity. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { prios = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0 }
let is_empty h = h.size = 0

(* Grows the backing arrays, using [value] to fill the fresh payload cells;
   cells beyond [size] are never read before being overwritten. *)
let[@inline] ensure_capacity h value =
  if h.size = Array.length h.prios then begin
    let cap = if h.size = 0 then 16 else h.size * 2 in
    let prios = Array.make cap 0.0 in
    let seqs = Array.make cap 0 in
    let values = Array.make cap value in
    if h.size > 0 then begin
      Array.blit h.prios 0 prios 0 h.size;
      Array.blit h.seqs 0 seqs 0 h.size;
      Array.blit h.values 0 values 0 h.size
    end;
    h.prios <- prios;
    h.seqs <- seqs;
    h.values <- values
  end

(* Heap order: smaller priority first, then smaller insertion sequence so
   that equal-priority entries pop in FIFO order. [before h a b] compares
   the entries in slots [a] and [b]. *)
let[@inline] before h a b =
  let pa = h.prios.(a) and pb = h.prios.(b) in
  pa < pb || (pa = pb && h.seqs.(a) < h.seqs.(b))

let[@inline] move h ~src ~dst =
  h.prios.(dst) <- h.prios.(src);
  h.seqs.(dst) <- h.seqs.(src);
  h.values.(dst) <- h.values.(src)

let push h ~priority value =
  ensure_capacity h value;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  (* Sift up: move the hole from the new last slot towards the root while
     its parent orders after the new entry. *)
  let i = ref h.size in
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = h.prios.(parent) in
    if priority < pp || (priority = pp && seq < h.seqs.(parent)) then begin
      move h ~src:parent ~dst:!i;
      i := parent
    end
    else rising := false
  done;
  h.prios.(!i) <- priority;
  h.seqs.(!i) <- seq;
  h.values.(!i) <- value;
  h.size <- h.size + 1

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty heap";
  let top = h.values.(0) in
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then begin
    (* Sift down: the last entry stays in slot [last], beyond the live
       entries, while the hole descends from the root past every child
       that orders before it; then it fills the hole. *)
    let i = ref 0 in
    let sinking = ref true in
    while !sinking do
      let left = (2 * !i) + 1 in
      if left >= last then sinking := false
      else begin
        let right = left + 1 in
        let child = if right < last && before h right left then right else left in
        if before h child last then begin
          move h ~src:child ~dst:!i;
          i := child
        end
        else sinking := false
      end
    done;
    move h ~src:last ~dst:!i
  end;
  top
