(* What one round of a workload reports. A round is a fresh world built
   from the run's seed, set up, then driven through a fixed amount of
   work, so every round of a run does identical simulated work: its
   deterministic figures must repeat exactly, and its host timings are
   samples of the same quantity. *)

type t = {
  ops : int;  (** ops completed in the timed window *)
  attempted : int;
  failed : int;
  setup_ns : int;  (** host ns from round start to the first timed op *)
  batches : float list;  (** host ns/op of each fixed-size batch of ops *)
  window_ns : int;  (** host ns of the whole timed window *)
  det : (string * float) list;
      (** virtual-clock metrics and per-layer counts: identical for
          identical (workload, seed), whatever the host *)
  errors : string list;  (** correctness-gate violations *)
  digest : string;  (** witness of the inputs the system received *)
  hist : Dk_sim.Histogram.t option;
      (** latency distribution, where rounds of several seeds are pooled *)
}

(* The latency objective the vslo_kops metric is judged against:
   p99.9 at most 100 us of virtual time. *)
let slo_ns = 100_000.0

(* Nearest-rank quantile of a sorted array; with n >= 10,000 the p99.9
   rank leaves at least ten samples above it. *)
let rank n q = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(rank n q)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  quantile a 0.5

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let max_over_mean a =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let sum = Array.fold_left ( +. ) 0.0 a in
    if sum <= 0.0 then 0.0
    else Array.fold_left Float.max 0.0 a /. (sum /. float_of_int n)
