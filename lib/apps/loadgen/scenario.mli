(** Named load scenarios: complete seeded descriptions of an offered
    workload (arrival process, key popularity, connection mix, churn,
    reader pathology, incast fan-in) at 10^5-connection scale.

    [offered_mult] is relative to the calibrated capacity of the world
    under test ({!Loadgen.calibrate}), so the same scenario stresses
    any shard count equally. *)

type t = {
  name : string;
  summary : string;
  conns : int;
  duration_ms : int;
  offered_mult : float;
  arrival : Arrivals.spec;
  keys : int;
  zipf_theta : float;
  read_fraction : float;
  value_size : int;
  short_frac : float;
  churn_per_s : float;
  slow_frac : float;
  slow_delay_ns : int64;
  incast_every_ns : int64;
  incast_fanin : int;
  qcap : int;
  trunks : int;
  offload : bool;
  offload_hit : float;
}

val base : t
(** Template the catalogue derives from; also the base for ad-hoc
    scenarios in tests. *)

val all : t list
(** The catalogue: poisson-steady, bursty-onoff, churn-heavy, incast,
    overload. *)

val find : string -> t option

val smoke : t -> t
(** Same shape at CI scale: 10^4 connections, a few virtual ms. *)
