open Msdq_simkit

(* Pops every entry in order. *)
let drain h =
  let out = ref [] in
  while not (Heap.is_empty h) do
    out := Heap.pop h :: !out
  done;
  List.rev !out

let test_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.check_raises "pop raises" (Invalid_argument "Heap.pop: empty heap")
    (fun () -> ignore (Heap.pop h))

let test_ordering () =
  let h = Heap.create () in
  List.iter
    (fun (p, v) -> Heap.push h ~priority:p v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (0.5, "z") ];
  Alcotest.(check (list string)) "sorted" [ "z"; "a"; "b"; "c" ] (drain h)

let test_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~priority:1.0 v) [ 1; 2; 3; 4; 5 ];
  Heap.push h ~priority:0.0 0;
  Alcotest.(check (list int)) "fifo among equal priorities" [ 0; 1; 2; 3; 4; 5 ]
    (drain h)

(* At capacity a push and a pop write into the existing arrays and
   allocate nothing themselves; the budget covers the boxed priority the
   caller hands to [push]. *)
let test_no_allocation () =
  let n = 100_000 in
  let h = Heap.create () in
  for i = 0 to n - 1 do
    Heap.push h ~priority:(float_of_int ((i * 7919) mod n)) i
  done;
  let pairs = 100_000 in
  let before = Gc.minor_words () in
  for i = 1 to pairs do
    let v = Heap.pop h in
    Heap.push h ~priority:(float_of_int (v + i)) v
  done;
  let per_pair = (Gc.minor_words () -. before) /. float_of_int pairs in
  if per_pair >= 8.0 then
    Alcotest.failf "%.1f minor words per push+pop pair (want < 8)" per_pair

let prop_heapsort =
  QCheck.Test.make ~name:"heap pops in nondecreasing priority order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun priorities ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h ~priority:p p) priorities;
      let popped = drain h in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | [ _ ] | [] -> true
      in
      if not (sorted popped) then QCheck.Test.fail_report "out of order";
      List.sort Float.compare priorities = popped)

let prop_interleaved =
  QCheck.Test.make ~name:"interleaved push/pop preserves contents" ~count:200
    QCheck.(list (pair (float_bound_inclusive 100.0) bool))
    (fun ops ->
      let h = Heap.create () in
      let pushed = ref 0 and popped = ref 0 in
      List.iter
        (fun (p, do_pop) ->
          if do_pop then begin
            if not (Heap.is_empty h) then begin
              ignore (Heap.pop h);
              incr popped
            end
          end
          else begin
            Heap.push h ~priority:p p;
            incr pushed
          end)
        ops;
      List.length (drain h) = !pushed - !popped)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "fifo tie-break" `Quick test_fifo_ties;
    Alcotest.test_case "push+pop at capacity allocate < 8 words" `Quick
      test_no_allocation;
    QCheck_alcotest.to_alcotest prop_heapsort;
    QCheck_alcotest.to_alcotest prop_interleaved;
  ]
