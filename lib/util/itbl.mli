(** Hash tables keyed by [int].

    The stdlib's polymorphic [Hashtbl] hashes and compares every key
    through the generic runtime ([caml_hash], [caml_compare]), which
    costs about twice a monomorphic lookup. This table hashes a key
    with one multiply and compares keys with machine [=]. The per-op
    tables of the datapath (tokens, descriptors, arena blocks, NICs,
    connections, ports) use it.

    Iteration order ([iter], [fold], [to_seq]) depends on the hash and
    on insertion history, as it does for [Hashtbl]. Code whose effects
    depend on the order walks the table with {!fold_sorted} instead, as
    it would with {!Det} for a [Hashtbl]. dk-shard's det-source rule and
    dk-hot's scan and poly rules treat this module like [Hashtbl], and
    exempt {!fold_sorted}'s own walk as they exempt [Det]'s. *)

include Hashtbl.S with type key = int

val fold_sorted : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold in ascending key order. With duplicate keys (from [add]
    shadowing), the relative order of equal keys is unspecified but
    stable for a given table state. *)
