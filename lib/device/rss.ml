(* Receive-side scaling: the NIC-level steering stage that hashes a
   flow's 5-tuple through a configurable indirection table to pick the
   per-core rx queue (= shard) that owns the flow. This is the
   mechanism real NICs use to give each core a private descriptor ring;
   in the simulation the steering decision is made once per flow at
   admission time (hardware would make the same decision per frame, but
   a flow's tuple never changes, so per-flow is equivalent and costs no
   host CPU — exactly the "device classifies, host never touches it"
   split of §4.3).

   The hash is a deterministic FNV-1a over the 13 tuple bytes — a
   stand-in for the Toeplitz hash real hardware uses; what matters for
   the reproduction is that it is a pure function of the tuple, so
   steering is replayable and dk-shard can treat it as a sanctioned
   (deterministic) source. *)

type t = {
  queues : int;
  table : int array; (* indirection table: hash bucket -> queue *)
}

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

(* FNV's final multiply leaves the low bits poorly avalanched, and the
   indirection-table reduction reads exactly those bits — without a
   finalizer, consecutive tuples collapse into a handful of buckets.
   Hardware Toeplitz does not have this problem; borrow murmur3's
   64-bit finisher to get the same any-bit-affects-any-bit property. *)
let finalize h =
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xff51afd7ed558ccdL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
  Int64.logxor h (Int64.shift_right_logical h 33)

let hash_flow ~src_ip ~src_port ~dst_ip ~dst_port ~proto =
  let h = fnv_offset in
  let h = fnv1a_byte h src_ip in
  let h = fnv1a_byte h (src_ip lsr 8) in
  let h = fnv1a_byte h (src_ip lsr 16) in
  let h = fnv1a_byte h (src_ip lsr 24) in
  let h = fnv1a_byte h dst_ip in
  let h = fnv1a_byte h (dst_ip lsr 8) in
  let h = fnv1a_byte h (dst_ip lsr 16) in
  let h = fnv1a_byte h (dst_ip lsr 24) in
  let h = fnv1a_byte h src_port in
  let h = fnv1a_byte h (src_port lsr 8) in
  let h = fnv1a_byte h dst_port in
  let h = fnv1a_byte h (dst_port lsr 8) in
  let h = fnv1a_byte h proto in
  Int64.to_int (Int64.logand (finalize h) 0x3fffffffffffffffL)

let create ~queues () =
  if queues <= 0 then invalid_arg "Rss.create: queues must be positive";
  (* A 128-entry indirection table, initialised round-robin: the even
     spread hardware starts from. *)
  { queues; table = Array.init 128 (fun i -> i mod queues) }

let queues t = t.queues
let table_size t = Array.length t.table

let entry t i =
  if i < 0 || i >= Array.length t.table then invalid_arg "Rss.entry: index";
  t.table.(i)

let select t ~src_ip ~src_port ~dst_ip ~dst_port ~proto =
  let h = hash_flow ~src_ip ~src_port ~dst_ip ~dst_port ~proto in
  t.table.(h mod Array.length t.table)

(* Indirection-table rebalancing: given the observed per-bucket flow
   weight, repoint entries so queue loads equalise — the software
   counterpart of `ethtool -X`. Greedy longest-processing-time: place
   buckets in descending weight on the least-loaded queue, ties broken
   to the lower bucket index / queue id so the result is a pure
   function of the weights. *)
let rebalance t weights =
  if Array.length weights <> Array.length t.table then
    invalid_arg "Rss.rebalance: weight per table entry required";
  let order = Array.init (Array.length weights) (fun i -> i) in
  Array.sort
    (fun a b ->
      match compare weights.(b) weights.(a) with
      | 0 -> compare a b
      | c -> c)
    order;
  let load = Array.make t.queues 0 in
  Array.iter
    (fun bucket ->
      let q = ref 0 in
      for j = 1 to t.queues - 1 do
        if load.(j) < load.(!q) then q := j
      done;
      t.table.(bucket) <- !q;
      load.(!q) <- load.(!q) + weights.(bucket))
    order
