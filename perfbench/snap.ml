(* Reads of the public Dk_obs registry. Library instruments are
   process-global ([core.token.minted]); per-shard ones are namespaced
   [shard<i>.*] and folded into [shards.agg.*] by the aggregating
   snapshot, so every read combines the plain and the aggregated name. *)

module Metrics = Dk_obs.Metrics

type t = Metrics.snapshot

let take () = Metrics.snapshot_with_shard_agg Metrics.default

let find_counter (s : t) n =
  match List.assoc_opt n s.Metrics.counters with Some v -> v | None -> 0

let counter s n = find_counter s n + find_counter s ("shards.agg." ^ n)

let gauge_hwm (s : t) n =
  let h n =
    List.fold_left
      (fun a (g, _, h) -> if String.equal g n then max a h else a)
      0 s.Metrics.gauges
  in
  max (h n) (h ("shards.agg." ^ n))

let delta a b n = counter b n - counter a n
