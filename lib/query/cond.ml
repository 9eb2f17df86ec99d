open Msdq_odb

type t =
  | Atom of Predicate.t
  | And of t list
  | Or of t list
  | Not of t

let tt = And []

let conj ts =
  let flat =
    List.concat_map (function And inner -> inner | other -> [ other ]) ts
  in
  match flat with [ single ] -> single | flat -> And flat

let rec atoms = function
  | Atom p -> [ p ]
  | And ts | Or ts -> List.concat_map atoms ts
  | Not t -> atoms t

let conjuncts t =
  let rec go acc = function
    | Atom p -> Some (p :: acc)
    | And ts ->
      List.fold_left (fun acc t -> Option.bind acc (fun acc -> go acc t)) (Some acc) ts
    | Or _ | Not _ -> None
  in
  Option.map List.rev (go [] t)

let is_conjunctive t = Option.is_some (conjuncts t)

let rec eval oracle = function
  | Atom p -> oracle p
  | And ts -> Truth.conj_all (List.map (eval oracle) ts)
  | Or ts -> Truth.disj_all (List.map (eval oracle) ts)
  | Not t -> Truth.neg (eval oracle t)

type indexed =
  | I_atom of int
  | I_unknown
  | I_and of indexed list
  | I_or of indexed list
  | I_not of indexed

let index atoms t =
  let position p =
    let rec find i =
      if i >= Array.length atoms then I_unknown
      else if Predicate.equal atoms.(i) p then I_atom i
      else find (i + 1)
    in
    find 0
  in
  let rec go = function
    | Atom p -> position p
    | And ts -> I_and (List.map go ts)
    | Or ts -> I_or (List.map go ts)
    | Not t -> I_not (go t)
  in
  go t

let rec eval_indexed truths = function
  | I_atom i -> truths.(i)
  | I_unknown -> Truth.Unknown
  | I_and ts -> conj_all truths Truth.True ts
  | I_or ts -> disj_all truths Truth.False ts
  | I_not t -> Truth.neg (eval_indexed truths t)

and conj_all truths acc = function
  | [] -> acc
  | t :: ts -> conj_all truths (Truth.conj acc (eval_indexed truths t)) ts

and disj_all truths acc = function
  | [] -> acc
  | t :: ts -> disj_all truths (Truth.disj acc (eval_indexed truths t)) ts

(* [fill columns out ~rows t] writes [t]'s truth column into [out]; a
   conjunction or disjunction folds each operand into [out] with the
   minimum or maximum code, through a scratch column only for operands that
   are not atoms. *)
let rec fill columns out ~rows = function
  | I_atom i -> Bytes.blit columns.(i) 0 out 0 rows
  | I_unknown -> Bytes.fill out 0 rows (Truth.code Truth.Unknown)
  | I_not t ->
    fill columns out ~rows t;
    for r = 0 to rows - 1 do
      Bytes.unsafe_set out r
        (Char.unsafe_chr (2 - Char.code (Bytes.unsafe_get out r)))
    done
  | I_and ts ->
    Bytes.fill out 0 rows (Truth.code Truth.True);
    List.iter (fold columns out ~rows ~conj:true) ts
  | I_or ts ->
    Bytes.fill out 0 rows (Truth.code Truth.False);
    List.iter (fold columns out ~rows ~conj:false) ts

and fold columns out ~rows ~conj t =
  let col =
    match t with
    | I_atom i -> columns.(i)
    | I_unknown | I_and _ | I_or _ | I_not _ ->
      let col = Bytes.create rows in
      fill columns col ~rows t;
      col
  in
  for r = 0 to rows - 1 do
    let c = Bytes.unsafe_get col r in
    if if conj then c < Bytes.unsafe_get out r else c > Bytes.unsafe_get out r
    then Bytes.unsafe_set out r c
  done

let eval_columns columns ~rows t =
  let out = Bytes.create rows in
  fill columns out ~rows t;
  out

let rec map_atoms f = function
  | Atom p -> Atom (f p)
  | And ts -> And (List.map (map_atoms f) ts)
  | Or ts -> Or (List.map (map_atoms f) ts)
  | Not t -> Not (map_atoms f t)

let rec pp ppf = function
  | Atom p -> Predicate.pp ppf p
  | And [] -> Format.pp_print_string ppf "true"
  | Or [] -> Format.pp_print_string ppf "false"
  | And ts ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " and ")
         pp)
      ts
  | Or ts ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " or ") pp)
      ts
  | Not t -> Format.fprintf ppf "not %a" pp t

let to_string t = Format.asprintf "%a" pp t

let rec equal a b =
  match (a, b) with
  | Atom p, Atom q -> Predicate.equal p q
  | And xs, And ys | Or xs, Or ys -> List.equal equal xs ys
  | Not x, Not y -> equal x y
  | (Atom _ | And _ | Or _ | Not _), _ -> false
