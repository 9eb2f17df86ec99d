open Msdq_odb
open Msdq_query

let p name v =
  Predicate.make ~path:[ name ] ~op:Predicate.Eq ~operand:(Value.Str v)

let a = p "a" "1"
let b = p "b" "2"
let c = p "c" "3"

let test_conj_flattening () =
  let t = Cond.conj [ Cond.Atom a; Cond.And [ Cond.Atom b; Cond.Atom c ] ] in
  (match t with
  | Cond.And [ Cond.Atom _; Cond.Atom _; Cond.Atom _ ] -> ()
  | _ -> Alcotest.fail "nested conjunction should flatten");
  (match Cond.conj [ Cond.Atom a ] with
  | Cond.Atom _ -> ()
  | _ -> Alcotest.fail "singleton conjunction unwraps");
  match Cond.tt with
  | Cond.And [] -> ()
  | _ -> Alcotest.fail "tt is the empty conjunction"

let test_atoms () =
  let t = Cond.Or [ Cond.Atom a; Cond.Not (Cond.And [ Cond.Atom b; Cond.Atom c ]) ] in
  Alcotest.(check int) "three atoms" 3 (List.length (Cond.atoms t));
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ]
    (List.map (fun (p : Predicate.t) -> Path.to_string p.Predicate.path) (Cond.atoms t))

let test_conjuncts () =
  let conj = Cond.And [ Cond.Atom a; Cond.Atom b ] in
  (match Cond.conjuncts conj with
  | Some [ _; _ ] -> ()
  | _ -> Alcotest.fail "conjunctive query should expose conjuncts");
  Alcotest.(check bool) "or is not conjunctive" true
    (Cond.conjuncts (Cond.Or [ Cond.Atom a ]) = None);
  Alcotest.(check bool) "not is not conjunctive" true
    (Cond.conjuncts (Cond.Not (Cond.Atom a)) = None);
  Alcotest.(check bool) "nested and ok" true
    (match Cond.conjuncts (Cond.And [ Cond.And [ Cond.Atom a ]; Cond.Atom b ]) with
    | Some [ _; _ ] -> true
    | _ -> false);
  Alcotest.(check bool) "is_conjunctive" true (Cond.is_conjunctive conj)

let test_eval () =
  let oracle (pr : Predicate.t) =
    match Path.to_string pr.Predicate.path with
    | "a" -> Truth.True
    | "b" -> Truth.False
    | _ -> Truth.Unknown
  in
  let tt = Alcotest.testable Truth.pp Truth.equal in
  Alcotest.check tt "and" Truth.False
    (Cond.eval oracle (Cond.And [ Cond.Atom a; Cond.Atom b ]));
  Alcotest.check tt "or" Truth.True
    (Cond.eval oracle (Cond.Or [ Cond.Atom a; Cond.Atom c ]));
  Alcotest.check tt "unknown propagates" Truth.Unknown
    (Cond.eval oracle (Cond.And [ Cond.Atom a; Cond.Atom c ]));
  Alcotest.check tt "not unknown" Truth.Unknown
    (Cond.eval oracle (Cond.Not (Cond.Atom c)));
  Alcotest.check tt "empty and" Truth.True (Cond.eval oracle Cond.tt)

let test_map_atoms () =
  let t = Cond.And [ Cond.Atom a; Cond.Or [ Cond.Atom b ] ] in
  let t' =
    Cond.map_atoms
      (fun p -> Predicate.make ~path:("x" :: p.Predicate.path) ~op:p.Predicate.op ~operand:p.Predicate.operand)
      t
  in
  Alcotest.(check (list string)) "prefixed" [ "x.a"; "x.b" ]
    (List.map (fun (p : Predicate.t) -> Path.to_string p.Predicate.path) (Cond.atoms t'))

let test_pp_equal () =
  let t = Cond.And [ Cond.Atom a; Cond.Not (Cond.Atom b) ] in
  Alcotest.(check bool) "renders" true (String.length (Cond.to_string t) > 0);
  Alcotest.(check bool) "equal" true (Cond.equal t t);
  Alcotest.(check bool) "not equal" false (Cond.equal t (Cond.Atom a))

(* [eval_columns] must give, row by row, what [eval_indexed] gives on that
   row's truths: random trees over four atoms, one of which the atom array
   lacks (so it reads as Unknown), over random truth columns. *)
let gen_tree =
  let open QCheck.Gen in
  let atom = map (fun p -> Cond.Atom p) (oneofl [ a; b; c; p "d" "4" ]) in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then atom
         else
           frequency
             [
               (1, atom);
               (2, map (fun ts -> Cond.And ts) (list_size (int_bound 3) (self (n - 1))));
               (2, map (fun ts -> Cond.Or ts) (list_size (int_bound 3) (self (n - 1))));
               (1, map (fun t -> Cond.Not t) (self (n - 1)));
             ])

let prop_columns =
  QCheck.Test.make ~name:"byte-column evaluation = eval_indexed per row" ~count:500
    (QCheck.make ~print:(fun (t, rows) -> Printf.sprintf "%s over %d rows" (Cond.to_string t) (List.length rows))
       QCheck.Gen.(
         pair gen_tree
           (list_size (int_bound 40)
              (array_repeat 3 (oneofl Truth.[ True; False; Unknown ])))))
    (fun (t, rows) ->
      let atoms = [| a; b; c |] in
      let indexed = Cond.index atoms t in
      let n = List.length rows in
      let columns =
        Array.init 3 (fun i ->
            Bytes.of_seq (Seq.map (fun truths -> Truth.code truths.(i)) (List.to_seq rows)))
      in
      let got = Cond.eval_columns columns ~rows:n indexed in
      List.for_all2
        (fun r truths ->
          Truth.equal (Truth.of_code (Bytes.get got r)) (Cond.eval_indexed truths indexed))
        (List.init n Fun.id) rows)

let suite =
  [
    Alcotest.test_case "conjunction flattening" `Quick test_conj_flattening;
    Alcotest.test_case "atoms" `Quick test_atoms;
    Alcotest.test_case "conjuncts" `Quick test_conjuncts;
    Alcotest.test_case "three-valued eval" `Quick test_eval;
    Alcotest.test_case "map_atoms" `Quick test_map_atoms;
    Alcotest.test_case "pp and equality" `Quick test_pp_equal;
    QCheck_alcotest.to_alcotest prop_columns;
  ]
