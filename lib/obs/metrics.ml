(* [*_class] is the instrument an instance also bumps: [None] for a
   registered (class) instrument, [Some c] for an instance of [c]. *)
type counter = {
  c_name : string;
  mutable c_value : int;
  c_class : counter option;
}

type gauge = {
  g_name : string;
  mutable g_value : int;
  mutable g_hwm : int;
  g_class : gauge option;
}

type hist = { h_name : string; h_data : Dk_sim.Histogram.t; h_class : hist option }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
  }

let default = create ()
[@@shard.per_shard
  "process-wide default instrument registry, shared by every shard in the \
   process: nothing outside the tests creates another or passes ~reg, so \
   shards are told apart only by their shard<i>. instrument names"]

let get_or_create table name make =
  match Hashtbl.find_opt table name with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace table name v;
      v

let counter ?(reg = default) name =
  get_or_create reg.counters name (fun () ->
      { c_name = name; c_value = 0; c_class = None })

let not_a_class what =
  invalid_arg ("Metrics." ^ what ^ ": an instance's class must be registered")

let instance c =
  if Option.is_some c.c_class then not_a_class "instance";
  { c_name = c.c_name; c_value = 0; c_class = Some c }

(* Flat, not recursive: an instance's class is always registered, so a
   bump is at most two field writes in one call. *)
let add c n =
  c.c_value <- c.c_value + n;
  match c.c_class with Some k -> k.c_value <- k.c_value + n | None -> ()

let incr c =
  c.c_value <- c.c_value + 1;
  match c.c_class with Some k -> k.c_value <- k.c_value + 1 | None -> ()

let value c = c.c_value

let gauge ?(reg = default) name =
  get_or_create reg.gauges name (fun () ->
      { g_name = name; g_value = 0; g_hwm = 0; g_class = None })

let gauge_instance g =
  if Option.is_some g.g_class then not_a_class "gauge_instance";
  { g_name = g.g_name; g_value = 0; g_hwm = 0; g_class = Some g }

let move g n =
  let v = g.g_value + n in
  g.g_value <- v;
  if v > g.g_hwm then g.g_hwm <- v

(* An instance moves its class by the same delta, so the class level is
   the sum of its instances' (plus any direct moves of its own). *)
let gauge_add g n =
  move g n;
  match g.g_class with Some k -> move k n | None -> ()

let set g v = gauge_add g (v - g.g_value)
let gauge_value g = g.g_value
let gauge_hwm g = g.g_hwm

let hist ?(reg = default) name =
  get_or_create reg.hists name (fun () ->
      { h_name = name; h_data = Dk_sim.Histogram.create (); h_class = None })

let hist_instance h =
  if Option.is_some h.h_class then not_a_class "hist_instance";
  { h_name = h.h_name; h_data = Dk_sim.Histogram.create (); h_class = Some h }

let observe h v =
  Dk_sim.Histogram.record h.h_data v;
  match h.h_class with
  | Some k -> Dk_sim.Histogram.record k.h_data v
  | None -> ()

let hist_data h = h.h_data

let reset t =
  let iter f tbl = Dk_util.Det.iter_sorted ~compare:String.compare f tbl in
  iter (fun _ c -> c.c_value <- 0) t.counters;
  iter
    (fun _ g ->
      g.g_value <- 0;
      g.g_hwm <- 0)
    t.gauges;
  iter (fun _ h -> Dk_sim.Histogram.clear h.h_data) t.hists

type hist_summary = {
  hs_count : int;
  hs_mean : float;
  hs_p50 : int64;
  hs_p90 : int64;
  hs_p99 : int64;
  hs_p999 : int64;
  hs_max : int64;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int * int) list;
  hists : (string * hist_summary) list;
}

let sorted_bindings table f =
  Dk_util.Det.fold_sorted ~compare:String.compare
    (fun name v acc -> (name, f v) :: acc)
    table []
  |> List.rev

let summarize (h : Dk_sim.Histogram.t) =
  {
    hs_count = Dk_sim.Histogram.count h;
    hs_mean = Dk_sim.Histogram.mean h;
    hs_p50 = Dk_sim.Histogram.quantile h 0.5;
    hs_p90 = Dk_sim.Histogram.quantile h 0.9;
    hs_p99 = Dk_sim.Histogram.quantile h 0.99;
    hs_p999 = Dk_sim.Histogram.quantile h 0.999;
    hs_max = Dk_sim.Histogram.max h;
  }

let snapshot (t : t) : snapshot =
  {
    counters = sorted_bindings t.counters (fun c -> c.c_value);
    gauges =
      (sorted_bindings t.gauges (fun g -> (g.g_value, g.g_hwm))
      |> List.map (fun (n, (v, h)) -> (n, v, h)));
    hists = sorted_bindings t.hists (fun h -> summarize h.h_data);
  }

(* ---- multi-shard aggregation ----

   The multi-shard datapath namespaces every per-shard instrument as
   shard<i>.<layer>.<component>.<event>. The aggregated view folds
   those back into one shards.agg.<layer>.<component>.<event> entry
   per metric — the operator's "whole box" view next to the per-core
   ones — without touching the underlying instruments. *)

let agg_prefix = "shards.agg."

(* "shard<digits>.<rest>" -> Some rest *)
let shard_rest name =
  let n = String.length name in
  if n < 7 || not (String.equal (String.sub name 0 5) "shard") then None
  else begin
    let i = ref 5 in
    while !i < n && name.[!i] >= '0' && name.[!i] <= '9' do
      i := !i + 1
    done;
    if !i > 5 && !i < n - 1 && name.[!i] = '.' then
      Some (String.sub name (!i + 1) (n - !i - 1))
    else None
  end

let by_name_fst a b = String.compare (fst a) (fst b)
let by_name_3 (a, _, _) (b, _, _) = String.compare a b

let snapshot_with_shard_agg (t : t) : snapshot =
  let base = snapshot t in
  let csum = Hashtbl.create 16 in
  List.iter
    (fun (name, v) ->
      match shard_rest name with
      | None -> ()
      | Some rest ->
          let prev =
            match Hashtbl.find_opt csum rest with Some p -> p | None -> 0
          in
          Hashtbl.replace csum rest (prev + v))
    base.counters;
  let gsum = Hashtbl.create 16 in
  List.iter
    (fun (name, v, hwm) ->
      match shard_rest name with
      | None -> ()
      | Some rest ->
          let pv, ph =
            match Hashtbl.find_opt gsum rest with
            | Some p -> p
            | None -> (0, 0)
          in
          (* Aggregate level sums across shards; the high-water of the
             sum is unknowable after the fact, so report the worst
             single shard's. *)
          Hashtbl.replace gsum rest (pv + v, Stdlib.max ph hwm))
    base.gauges;
  let hmerge = Hashtbl.create 16 in
  Dk_util.Det.iter_sorted ~compare:String.compare
    (fun name h ->
      match shard_rest name with
      | None -> ()
      | Some rest ->
          let merged =
            match Hashtbl.find_opt hmerge rest with
            | Some prev -> Dk_sim.Histogram.merge prev h.h_data
            | None -> Dk_sim.Histogram.merge (Dk_sim.Histogram.create ()) h.h_data
          in
          Hashtbl.replace hmerge rest merged)
    t.hists;
  let folded tbl f =
    Dk_util.Det.fold_sorted ~compare:String.compare
      (fun rest v acc -> f (agg_prefix ^ rest) v :: acc)
      tbl []
  in
  {
    counters =
      List.sort by_name_fst (base.counters @ folded csum (fun n v -> (n, v)));
    gauges =
      List.sort by_name_3
        (base.gauges @ folded gsum (fun n (v, hwm) -> (n, v, hwm)));
    hists =
      List.sort by_name_fst
        (base.hists @ folded hmerge (fun n h -> (n, summarize h)));
  }
