(** Centralised cost model for the simulated substrate.

    Every nanosecond charged anywhere in the reproduction comes from one
    of these constants, so the mapping from a paper claim to a model
    parameter is auditable. The defaults are calibrated against the
    paper's own numbers and public figures for the device classes:

    - §3.2: copying a 4 KB page costs ~1 µs on a 4 GHz CPU
      ([copy_per_byte] = 0.244 ns/B), and a Redis read spends ~2 µs of
      application work ([app_request] = 2000 ns).
    - Kernel-mediated I/O pays [syscall] per crossing plus
      [kernel_net_per_pkt] of stack processing — µs-scale per operation,
      matching the overheads cited in §1/§3.
    - Kernel-bypass devices pay only [pcie_doorbell] + DMA + wire time.
    - mTCP-style user stacks trade latency for throughput via
      [mtcp_batch_delay] (§6: its latency was higher than the kernel's).
*)

type t = {
  cpu_ghz : float;          (** nominal core clock, for cycle conversions *)
  syscall : int64;          (** one user/kernel crossing *)
  context_switch : int64;   (** waking a blocked thread *)
  copy_base : int64;        (** fixed cost of any memcpy *)
  copy_per_byte : float;    (** ns per copied byte *)
  malloc : int64;           (** heap allocation *)
  free : int64;             (** heap free *)
  kernel_net_per_pkt : int64; (** kernel network stack, per segment *)
  kernel_sock_demux : int64;  (** socket lookup/locking, per operation *)
  user_net_per_pkt : int64;   (** user-level (libOS) stack, per segment *)
  mtcp_batch_delay : int64;   (** added latency of batched user TCP *)
  pcie_doorbell : int64;    (** MMIO doorbell write *)
  tx_batch_window : int64;  (** tx doorbell coalescing quantum; [0] rings
                                per submission (the unbatched path,
                                bit-identical to no coalescing stage) *)
  dma_base : int64;         (** DMA engine setup *)
  dma_per_byte : float;     (** DMA transfer, ns per byte *)
  wire_latency : int64;     (** propagation, NIC-to-NIC in-rack *)
  wire_per_byte : float;    (** serialisation at line rate (100 Gb/s) *)
  rdma_nic_proc : int64;    (** RDMA NIC work-request processing *)
  nvme_read : int64;        (** NVMe flash read latency *)
  nvme_write : int64;       (** NVMe flash program latency *)
  nvme_per_byte : float;    (** flash transfer, ns per byte *)
  vfs_overhead : int64;     (** VFS/page-cache/dentry work per file op *)
  register_region : int64;  (** registering a memory region with a device *)
  pin_per_page : int64;     (** pinning one 4 KB page *)
  poll_iter : int64;        (** one empty poll-loop iteration *)
  filter_cpu_base : int64;  (** evaluating a filter/map on the CPU *)
  filter_cpu_per_byte : float;
  device_prog_per_elem : int64; (** device-side program latency (no CPU) *)
  app_request : int64;      (** application work per request (Redis ≈ 2 µs) *)
}

val default : t

val copy_ns : t -> int -> int64
(** Cost of copying [n] bytes. *)

val dma_ns : t -> int -> int
(** DMA time for [n] bytes, in int ns (the device path's clock). *)

val wire_ns : t -> int -> int
(** Propagation plus serialisation of [n] bytes, in int ns. *)

val nvme_transfer_ns : t -> int -> int64
val filter_cpu_ns : t -> int -> int64

val cycles_to_ns : t -> int -> int64

val pp : Format.formatter -> t -> unit
(** Print every constant, for experiment logs. *)
