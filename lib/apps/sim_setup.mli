(** Simulated worlds shared by the CLI, tests, examples and the
    benchmark harness: an engine and a switched fabric with two hosts,
    each running the operating system a scenario compares (Demikernel,
    the legacy kernel, mTCP, or Demikernel's kernel-fallback libOS). *)

type host = {
  nic : Dk_device.Nic.t;
  stack : Dk_net.Stack.t;
  ip : Dk_net.Addr.ip;
}

(** {2 The world builder} *)

type _ os =
  | Demikernel : Demikernel.Demi.t os
  | Kernel : Dk_kernel.Posix.t os
  | Mtcp : Dk_kernel.Mtcp.t os
  | Fallback : Demikernel.Demi.t os
      (** Demikernel over the simulated kernel's sockets: the libOS a
          host with no accelerator runs *)

type 'os world = {
  os : 'os os;  (** what runs on both hosts *)
  engine : Dk_sim.Engine.t;
  fabric : Dk_device.Fabric.t;
  cost : Dk_sim.Cost.t;
  fault : Dk_fault.Fault.t;
      (** the world's own fault domain: its fabric, NICs and block
          device consult it and nothing else does *)
  a : host;  (** 10.<id>.0.1 *)
  b : host;  (** 10.<id>.0.2 *)
  client : 'os;  (** the OS on [a] *)
  server : 'os;  (** the OS on [b] *)
}

val world :
  ?id:int ->
  ?fault_plan:Dk_fault.Fault.plan ->
  ?loss:float ->
  ?cost:Dk_sim.Cost.t ->
  ?programmable:bool ->
  ?block:bool ->
  'os os ->
  'os world
(** Build an engine, a fabric and two hosts, and run [os] on both.

    - Each host's stack charges the OS's per-packet cost: the kernel
      stack's ([Cost.kernel_net_per_pkt]) under [Kernel] and
      [Fallback], the user-level stack's ([Cost.user_net_per_pkt])
      under the others.
    - [id] (default [0], must be [>= 0]) picks the addressing: hosts
      [10.<id>.0.1] and [10.<id>.0.2] (the id taken mod 256) with MAC
      indices [2 id + 1] and [2 id + 2], so shard worlds never
      collide.
    - The world owns a fresh fault domain; [fault_plan], when given,
      is installed into it, so a plan never reaches another world.
    - [loss] is the fabric's loss probability; [programmable] gives
      both NICs an on-NIC program slot.
    - [block] (default [false]) attaches an NVMe device in the world's
      fault domain to the client's Demikernel.
      @raise Invalid_argument with [block] under another OS. *)

val endpoint : host -> int -> Dk_net.Addr.endpoint

(** {2 Hand-built worlds}

    For worlds the builder does not make. A NIC created here consults
    a fault domain of its own, which nothing arms. *)

val add_host :
  engine:Dk_sim.Engine.t ->
  cost:Dk_sim.Cost.t ->
  fabric:Dk_device.Fabric.t ->
  index:int ->
  ip:string ->
  unit ->
  host
(** Attach a NIC with MAC index [index] to [fabric] and give it a
    user-level stack at [ip]. *)

val demi_of_host :
  engine:Dk_sim.Engine.t ->
  cost:Dk_sim.Cost.t ->
  host ->
  ?block:Dk_device.Block.t ->
  ?rdma:Dk_device.Rdma.t ->
  unit ->
  Demikernel.Demi.t
