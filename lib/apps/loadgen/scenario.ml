(* The named scenario catalogue: each entry is a complete, seeded
   description of an offered workload — arrival process, key
   popularity, connection mix, churn, reader pathology, fan-in — at a
   scale (10^5 connections) where O(n) anywhere in the datapath shows
   up in the tail.

   [offered_mult] is relative to the calibrated closed-loop capacity of
   the world under test (see Loadgen.calibrate): 0.8 means "80% of what
   the datapath can serve", so the same scenario stresses a 1-shard and
   a 16-shard world equally instead of trivially flattening one and
   starving the other. *)

type t = {
  name : string;
  summary : string;
  conns : int;  (** concurrent modeled connections *)
  duration_ms : int;  (** virtual time arrivals keep coming *)
  offered_mult : float;  (** offered rate as a multiple of capacity *)
  arrival : Arrivals.spec;
  keys : int;  (** kv key-space size *)
  zipf_theta : float;  (** 0.0 = uniform keys *)
  read_fraction : float;
  value_size : int;
  short_frac : float;  (** fraction of arrivals on fresh one-shot conns *)
  churn_per_s : float;  (** long-lived conns replaced per virtual second *)
  slow_frac : float;  (** fraction of conns that are slow readers *)
  slow_delay_ns : int64;  (** trunk stall while a slow reader drains *)
  incast_every_ns : int64;  (** 0 = no incast source *)
  incast_fanin : int;  (** simultaneous requests per incast burst *)
  qcap : int;  (** per-shard pending-request bound (shed above) *)
  trunks : int;  (** real datapath connections multiplexed per shard *)
  offload : bool;
      (** serve kv over UDP trunks with the GET hot path offloaded to
          the (programmable) server NIC's device-resident table *)
  offload_hit : float;
      (** target device-hit fraction of GETs: the smallest hot-key
          prefix carrying this much popularity mass is pre-inserted
          into the device table (0.0 = cold table, every GET misses) *)
}

let base =
  {
    name = "base";
    summary = "";
    conns = 100_000;
    duration_ms = 40;
    offered_mult = 0.8;
    arrival = Arrivals.Poisson;
    keys = 4096;
    zipf_theta = 0.99;
    read_fraction = 0.9;
    value_size = 64;
    short_frac = 0.0;
    churn_per_s = 0.0;
    slow_frac = 0.0;
    slow_delay_ns = 0L;
    incast_every_ns = 0L;
    incast_fanin = 0;
    qcap = 4096;
    trunks = 8;
    offload = false;
    offload_hit = 0.0;
  }

let all =
  [
    {
      base with
      name = "poisson-steady";
      summary = "open-loop Poisson at 80% capacity, Zipf keys";
    };
    {
      base with
      name = "bursty-onoff";
      summary = "self-similar on/off (Pareto phases), same average rate";
      arrival =
        Arrivals.On_off
          { on_mean_ns = 200_000.0; off_mean_ns = 600_000.0; alpha = 1.5 };
      offered_mult = 0.7;
    };
    {
      base with
      name = "churn-heavy";
      summary = "half the arrivals on fresh flows, heavy conn turnover";
      offered_mult = 0.7;
      short_frac = 0.5;
      churn_per_s = 200_000.0;
    };
    {
      base with
      name = "incast";
      summary = "periodic fan-in bursts onto one shard + slow readers";
      offered_mult = 0.5;
      slow_frac = 0.1;
      slow_delay_ns = 200_000L;
      incast_every_ns = 1_000_000L;
      incast_fanin = 256;
    };
    {
      base with
      name = "overload";
      summary = "offered 2x capacity: shedding and queueing made explicit";
      offered_mult = 2.0;
      duration_ms = 20;
      (* Tight enough that sustained 2x overload visibly sheds instead
         of parking the whole backlog in a deep queue. *)
      qcap = 512;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

(* CI smoke scale: same shape, 10^4 conns and a short window, so the
   whole catalogue runs in seconds. *)
let smoke s =
  {
    s with
    conns = 10_000;
    duration_ms = min s.duration_ms 8;
    qcap = min s.qcap 1024;
  }
