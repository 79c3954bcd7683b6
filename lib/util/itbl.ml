include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* Fibonacci hashing: the multiply by 2^64/phi (wrapped to 63 bits)
     mixes the key's low bits into the high bits, and the shift brings
     them down to where [Hashtbl]'s bucket mask reads. A product bit
     depends only on the key bits below it, so the key's top half is
     folded into its bottom half first. Sequential tokens, block
     offsets that are multiples of a power of two and MACs that differ
     only in their top bytes all spread. *)
  let hash k = ((k lxor (k lsr 32)) * 0x4F1BBCDCBFA53E0B) lsr 32
end)

let fold_sorted f t init =
  let all = fold (fun k v acc -> (k, v) :: acc) t [] in
  List.fold_left
    (fun acc (k, v) -> f k v acc)
    init
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) all)
