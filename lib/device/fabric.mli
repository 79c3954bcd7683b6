(** Switched fabric connecting NICs.

    Models in-rack propagation plus line-rate serialisation (both from
    the {!Dk_sim.Cost} model) and, optionally, random frame loss — the
    failure-injection hook the TCP tests use. Delivery order between a
    given pair of NICs is FIFO (the event queue breaks timestamp ties
    by insertion order) unless jitter is configured. *)

type t

type stats = { delivered : int; lost : int; unrouted : int }

val broadcast : int
(** Destination address that delivers to every attached NIC except the
    sender. *)

val create :
  engine:Dk_sim.Engine.t ->
  cost:Dk_sim.Cost.t ->
  ?fault:Dk_fault.Fault.t ->
  ?loss:float ->
  ?jitter_ns:int64 ->
  ?seed:int64 ->
  unit ->
  t
(** [fault] is the fault domain the fabric's injection sites consult
    (default: a fresh, unarmed one); a world passes its own so injected
    faults stay within it.

    [jitter_ns] adds a uniform random 0..jitter extra delay per frame;
    jitter larger than the inter-frame gap reorders deliveries, which
    exercises receivers' reassembly paths. *)

val attach : t -> Nic.t -> unit
(** Connect a NIC; its transmissions now route through this fabric.
    @raise Invalid_argument on duplicate MAC. *)

val stats : t -> stats
