module Json = Msdq_obs.Json

(* ---- field reader ---- *)

type cursor = { path : string; json : Json.t }

exception Invalid of string

let root json = { path = ""; json }

let invalid c fmt =
  Printf.ksprintf
    (fun msg -> raise (Invalid (if c.path = "" then msg else c.path ^ ": " ^ msg)))
    fmt

let field c key =
  let path = if c.path = "" then key else c.path ^ "." ^ key in
  match Json.member key c.json with
  | Some json -> { path; json }
  | None -> raise (Invalid (path ^ ": missing"))

let elements ?(nonempty = false) c =
  match Json.to_list c.json with
  | None -> invalid c "not an array"
  | Some [] when nonempty -> invalid c "is empty"
  | Some l ->
      List.mapi (fun i json -> { path = Printf.sprintf "%s[%d]" c.path i; json }) l

type range = Any | Nonneg | Positive | Fraction

let in_range range c v =
  let ok, what =
    match range with
    | Any -> (true, "")
    | Nonneg -> (v >= 0.0, "a non-negative number")
    | Positive -> (v > 0.0, "positive")
    | Fraction -> (v >= 0.0 && v <= 1.0, "inside [0, 1]")
  in
  if ok then v else invalid c "%g must be %s" v what

let typed what conv c key =
  let f = field c key in
  match conv f.json with Some v -> (f, v) | None -> invalid f "not %s" what

let str c key = snd (typed "a string" Json.to_str c key)

let int ?min c key =
  let f, v = typed "an integer" Json.to_int c key in
  match min with Some m when v < m -> invalid f "%d must be >= %d" v m | _ -> v

let num ?(range = Any) c key =
  let f, v = typed "a number" Json.to_float c key in
  in_range range f v

let floats ?(range = Any) ?len c key =
  let f = field c key in
  let xs =
    List.map
      (fun e ->
        match Json.to_float e.json with
        | Some v -> in_range range e v
        | None -> invalid e "not a number")
      (elements f)
  in
  match len with
  | Some n when List.length xs <> n ->
      invalid f "has %d elements, expected %d" (List.length xs) n
  | _ -> xs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ---- sections ---- *)

type verdict = Pass of string | Skip of string | Fail of string

type metric =
  | Time of string * float
  | Rate of string * float
  | Share of string * float

type t = {
  key : string;
  since : int;
  until : int option;
  check : cursor -> unit;
  bars : (string * float) list;
  guard : string list;
  metrics : (cursor -> metric list) option;
}

let section_of s json = { path = s.key; json }

let bars s fresh =
  match Json.member s.key fresh with
  | None when s.bars <> [] -> [ Skip (s.key ^ ": fresh document has no such section") ]
  | None -> []
  | Some json ->
      List.map
        (fun (path, bar) ->
          let c =
            List.fold_left field (section_of s json) (String.split_on_char '.' path)
          in
          match Json.to_float c.json with
          | Some v when v >= bar ->
              Pass (Printf.sprintf "%s %.2f >= the %g bar" c.path v bar)
          | Some v -> Fail (Printf.sprintf "%s %.2f below the %g bar" c.path v bar)
          | None -> Fail (c.path ^ ": not a number"))
        s.bars

let guard_mismatches s ~base ~fresh =
  List.filter_map
    (fun k ->
      let int j = Option.bind (Json.member k j) Json.to_int in
      match (int base, int fresh) with
      | Some x, Some y when x = y -> None
      | Some x, Some y -> Some (Printf.sprintf "%s %d vs %d" k x y)
      | _ -> Some (k ^ " missing"))
    s.guard

let name_of = function Time (n, _) | Rate (n, _) | Share (n, _) -> n

let compare_metric ~tolerance ~what base fresh =
  let fail fmt = Printf.ksprintf (fun msg -> Some (Fail (what ^ ": " ^ msg))) fmt in
  match (base, fresh) with
  | Time (_, b), Time (_, f) when f > (b *. (1.0 +. tolerance)) +. 1e-12 ->
      fail "%g regressed beyond %g x (1 + %.2f)" f b tolerance
  | Rate (_, b), Rate (_, f) when f < (b /. (1.0 +. tolerance)) -. 1e-12 ->
      fail "%g dropped beyond %g / (1 + %.2f)" f b tolerance
  | Share (_, b), Share (_, f) when f < b -. tolerance ->
      fail "fell from %.2f to %.2f" b f
  | _ -> None

let compare ~tolerance s ~base ~fresh =
  match (s.metrics, Json.member s.key base, Json.member s.key fresh) with
  | None, _, _ -> []
  | Some _, None, _ -> [ Skip (s.key ^ ": baseline predates this section") ]
  | Some _, _, None -> [ Skip (s.key ^ ": missing from the fresh document") ]
  | Some metrics, Some b, Some f -> (
      match guard_mismatches s ~base:b ~fresh:f with
      | _ :: _ as reasons -> [ Skip (s.key ^ ": " ^ String.concat ", " reasons) ]
      | [] ->
          let base_metrics = metrics (section_of s b) in
          let verdicts =
            List.filter_map
              (fun m ->
                let what = s.key ^ " " ^ name_of m in
                match List.find_opt (fun bm -> name_of bm = name_of m) base_metrics with
                | None -> Some (Skip (what ^ ": not in baseline"))
                | Some bm -> compare_metric ~tolerance ~what bm m)
              (metrics (section_of s f))
          in
          if List.exists (function Fail _ -> true | _ -> false) verdicts then verdicts
          else verdicts @ [ Pass (s.key ^ ": within tolerance of the baseline") ])
