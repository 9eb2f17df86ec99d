type t = True | False | Unknown

let conj a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, True -> True
  | Unknown, (True | Unknown) | True, Unknown -> Unknown

let disj a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, False -> False
  | Unknown, (False | Unknown) | False, Unknown -> Unknown

let neg = function True -> False | False -> True | Unknown -> Unknown
let conj_all ts = List.fold_left conj True ts
let disj_all ts = List.fold_left disj False ts
let of_bool b = if b then True else False
let code = function False -> '\000' | Unknown -> '\001' | True -> '\002'
let of_code = function '\000' -> False | '\001' -> Unknown | _ -> True
let equal (a : t) (b : t) = a = b

let to_string = function
  | True -> "true"
  | False -> "false"
  | Unknown -> "unknown"

let pp ppf t = Format.pp_print_string ppf (to_string t)
