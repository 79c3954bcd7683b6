type pred =
  | True
  | False
  | Len_ge of int
  | Len_lt of int
  | Byte_eq of int * char
  | Byte_in of int * char * char
  | Prefix of string
  | Hash_mod of int * int * int * int
  | All of pred list
  | Any of pred list
  | Not of pred

type map =
  | Identity
  | Prepend of string
  | Append of string
  | Xor_mask of int
  | Truncate of int
  | Chain of map list

(* The hash state threads through parameters — an on-NIC program runs
   once per delivered frame, so a ref cell here would be a per-frame
   allocation (dk-hot: hot-alloc). *)
let rec fnv1a_loop s i stop h =
  if i >= stop then h
  else
    fnv1a_loop s (i + 1) stop
      (Int64.mul (Int64.logxor h (Int64.of_int (Char.code s.[i]))) 0x100000001b3L)

let fnv1a s off len =
  let stop = Int.min (String.length s) (off + len) in
  fnv1a_loop s (Int.max 0 off) stop 0xcbf29ce484222325L

(* Byte-by-byte prefix test: [String.sub] would copy the prefix out of
   the frame on every evaluation. *)
let rec prefix_from p s i =
  i >= String.length p || (p.[i] = s.[i] && prefix_from p s (i + 1))

(* [All]/[Any]/[Chain] recurse through dedicated mutually-recursive
   walkers rather than [List.for_all]/[exists]/[fold_left]: the
   combinator form closes over the frame, allocating one closure per
   node per frame on the rx path. *)
let rec eval_pred p s =
  match p with
  | True -> true
  | False -> false
  | Len_ge n -> String.length s >= n
  | Len_lt n -> String.length s < n
  | Byte_eq (off, c) -> off >= 0 && off < String.length s && s.[off] = c
  | Byte_in (off, lo, hi) ->
      off >= 0 && off < String.length s && s.[off] >= lo && s.[off] <= hi
  | Prefix p -> String.length s >= String.length p && prefix_from p s 0
  | Hash_mod (off, len, modulo, target) ->
      if modulo <= 0 then false
      else
        let h = fnv1a s off len in
        Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int modulo))
        = target
  | All ps -> eval_all ps s
  | Any ps -> eval_any ps s
  | Not p -> not (eval_pred p s)

and eval_all ps s =
  match ps with [] -> true | p :: rest -> eval_pred p s && eval_all rest s

and eval_any ps s =
  match ps with [] -> false | p :: rest -> eval_pred p s || eval_any rest s

let rec eval_map m s =
  match m with
  | Identity -> s
  | Prepend p -> p ^ s
  | Append a -> s ^ a
  | Xor_mask k ->
      String.map (fun c -> Char.chr (Char.code c lxor (k land 0xff))) s
  | Truncate n -> if String.length s <= n then s else String.sub s 0 n
  | Chain ms -> eval_chain ms s
  [@@hot.alloc "an on-NIC map program materializes the rewritten frame"]

and eval_chain ms s =
  match ms with [] -> s | m :: rest -> eval_chain rest (eval_map m s)

let rec filter_footprint = function
  | True | False | Len_ge _ | Len_lt _ -> 0
  | Byte_eq _ | Byte_in _ -> 1
  | Prefix p -> String.length p
  | Hash_mod (_, len, _, _) -> Int.max 0 len
  | All ps | Any ps -> filter_list_footprint ps
  | Not p -> filter_footprint p

and filter_list_footprint = function
  | [] -> 0
  | p :: rest -> filter_footprint p + filter_list_footprint rest

let rec map_footprint m len =
  match m with
  | Identity -> 0
  | Prepend p -> String.length p + len
  | Append a -> String.length a + len
  | Xor_mask _ -> len
  | Truncate n -> Int.min n len
  | Chain ms -> map_list_footprint ms len

and map_list_footprint ms len =
  match ms with
  | [] -> 0
  | m :: rest -> map_footprint m len + map_list_footprint rest len

(* ---- parse -> match -> action pipelines ----
   A pipeline is a bounded list of stages; every construct below is a
   finite term and every evaluator is structural recursion over it, so
   evaluation provably terminates (there is no loop construct and no
   stage can re-enter an earlier one). *)

type field =
  | F_len
  | F_u8 of int
  | F_u16 of int
  | F_hash of int * int
  | F_hash_rest of int

type key =
  | K_bytes of int * int
  | K_rest of int

type fmatch =
  | M_pred of pred
  | M_eq of field * int64
  | M_mod of field * int * int
  | M_all of fmatch list
  | M_any of fmatch list
  | M_not of fmatch

type action =
  | Pass
  | Drop
  | Rewrite of map
  | Respond of respond

and respond = {
  r_key : key;
  r_hit_prefix : string;
  r_max_value : int;
  r_on_miss : action;
}

type stage = { guard : fmatch; act : action }
type pipeline = stage list

type verdict =
  | Deliver of string
  | Dropped
  | Responded of string

(* Field extraction yields [None] when the frame is too short for the
   typed read — matches evaluate false, so an out-of-range access can
   never fault or read beyond the payload. *)
let field_value f s =
  let n = String.length s in
  match f with
  | F_len -> Some (Int64.of_int n)
  | F_u8 off ->
      if off >= 0 && off < n then Some (Int64.of_int (Char.code s.[off]))
      else None
  | F_u16 off ->
      if off >= 0 && off + 1 < n then
        Some
          (Int64.of_int ((Char.code s.[off] lsl 8) lor Char.code s.[off + 1]))
      else None
  | F_hash (off, len) ->
      if off >= 0 && len >= 0 && off + len <= n then Some (fnv1a s off len)
      else None
  | F_hash_rest off ->
      if off >= 0 && off <= n then Some (fnv1a s off (n - off)) else None

let key_bytes k s =
  let n = String.length s in
  match k with
  | K_bytes (off, len) ->
      if off >= 0 && len >= 0 && off + len <= n then
        Some (String.sub s off len)
      else None
  | K_rest off -> if off >= 0 && off <= n then Some (String.sub s off (n - off)) else None
  [@@hot.alloc "the extracted lookup key is copied out of the frame"]

(* Non-negative modular reduction, identical to [Hash_mod]. *)
let mod_reduce v m =
  Int64.to_int (Int64.rem (Int64.logand v Int64.max_int) (Int64.of_int m))

let rec eval_fmatch m s =
  match m with
  | M_pred p -> eval_pred p s
  | M_eq (f, v) -> (
      match field_value f s with Some x -> Int64.equal x v | None -> false)
  | M_mod (f, modulo, target) -> (
      if modulo <= 0 then false
      else
        match field_value f s with
        | Some x -> mod_reduce x modulo = target
        | None -> false)
  | M_all ms -> eval_fmatch_all ms s
  | M_any ms -> eval_fmatch_any ms s
  | M_not m -> not (eval_fmatch m s)

and eval_fmatch_all ms s =
  match ms with [] -> true | m :: rest -> eval_fmatch m s && eval_fmatch_all rest s

and eval_fmatch_any ms s =
  match ms with [] -> false | m :: rest -> eval_fmatch m s || eval_fmatch_any rest s

(* Mutual structural recursion: [eval_stages] descends the stage list,
   [eval_action] descends an action term (only through [r_on_miss],
   which is a strict subterm). Falling off the end delivers to the
   host — the safe default. *)
let rec eval_stages ~lookup stages s =
  match stages with
  | [] -> Deliver s
  | { guard; act } :: rest ->
      if eval_fmatch guard s then eval_action ~lookup act rest s
      else eval_stages ~lookup rest s

and eval_action ~lookup act rest s =
  match act with
  | Pass -> Deliver s
  | Drop -> Dropped
  | Rewrite m -> eval_stages ~lookup rest (eval_map m s)
  | Respond r -> (
      match key_bytes r.r_key s with
      | None -> eval_action ~lookup r.r_on_miss rest s
      | Some k -> (
          match lookup k with
          | Some v when String.length v <= r.r_max_value ->
              Responded (r.r_hit_prefix ^ v)
          | Some _ | None -> eval_action ~lookup r.r_on_miss rest s))
  [@@hot.alloc "a device-resident hit materializes the response payload"]

let eval_pipeline ~lookup p s = eval_stages ~lookup p s

(* ---- static footprints ----
   Upper bound on payload bytes examined or produced when evaluating on
   a [len]-byte frame, summing every stage and both branches of every
   [Respond] — static in the term, independent of which guards fire. *)

let field_footprint f len =
  match f with
  | F_len -> 0
  | F_u8 _ -> 1
  | F_u16 _ -> 2
  | F_hash (_, l) -> Int.max 0 l
  | F_hash_rest off -> Int.max 0 (len - Int.max 0 off)

let key_footprint k len =
  match k with
  | K_bytes (_, l) -> Int.max 0 l
  | K_rest off -> Int.max 0 (len - Int.max 0 off)

let rec fmatch_footprint m len =
  match m with
  | M_pred p -> filter_footprint p
  | M_eq (f, _) | M_mod (f, _, _) -> field_footprint f len
  | M_all ms | M_any ms -> fmatch_list_footprint ms len
  | M_not m -> fmatch_footprint m len

and fmatch_list_footprint ms len =
  match ms with
  | [] -> 0
  | m :: rest -> fmatch_footprint m len + fmatch_list_footprint rest len

let rec action_footprint a len =
  match a with
  | Pass | Drop -> 0
  | Rewrite m -> map_footprint m len
  | Respond r ->
      key_footprint r.r_key len
      + String.length r.r_hit_prefix + Int.max 0 r.r_max_value
      + action_footprint r.r_on_miss len

let stage_footprint st len =
  fmatch_footprint st.guard len + action_footprint st.act len

let rec pipeline_footprint p len =
  match p with
  | [] -> 0
  | st :: rest -> stage_footprint st len + pipeline_footprint rest len

let rec pp_pred ppf = function
  | True -> Format.fprintf ppf "true"
  | False -> Format.fprintf ppf "false"
  | Len_ge n -> Format.fprintf ppf "len>=%d" n
  | Len_lt n -> Format.fprintf ppf "len<%d" n
  | Byte_eq (o, c) -> Format.fprintf ppf "byte[%d]=%C" o c
  | Byte_in (o, lo, hi) -> Format.fprintf ppf "byte[%d] in [%C,%C]" o lo hi
  | Prefix p -> Format.fprintf ppf "prefix %S" p
  | Hash_mod (o, l, m, t) -> Format.fprintf ppf "hash[%d..+%d]%%%d=%d" o l m t
  | All ps ->
      Format.fprintf ppf "(all %a)"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_pred)
        ps
  | Any ps ->
      Format.fprintf ppf "(any %a)"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_pred)
        ps
  | Not p -> Format.fprintf ppf "(not %a)" pp_pred p

let rec pp_map ppf = function
  | Identity -> Format.fprintf ppf "id"
  | Prepend p -> Format.fprintf ppf "prepend %S" p
  | Append a -> Format.fprintf ppf "append %S" a
  | Xor_mask k -> Format.fprintf ppf "xor 0x%02x" (k land 0xff)
  | Truncate n -> Format.fprintf ppf "truncate %d" n
  | Chain ms ->
      Format.fprintf ppf "(chain %a)"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_map)
        ms
