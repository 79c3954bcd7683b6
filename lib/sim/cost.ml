type t = {
  cpu_ghz : float;
  syscall : int64;
  context_switch : int64;
  copy_base : int64;
  copy_per_byte : float;
  malloc : int64;
  free : int64;
  kernel_net_per_pkt : int64;
  kernel_sock_demux : int64;
  user_net_per_pkt : int64;
  mtcp_batch_delay : int64;
  pcie_doorbell : int64;
  tx_batch_window : int64;
  dma_base : int64;
  dma_per_byte : float;
  wire_latency : int64;
  wire_per_byte : float;
  rdma_nic_proc : int64;
  nvme_read : int64;
  nvme_write : int64;
  nvme_per_byte : float;
  vfs_overhead : int64;
  register_region : int64;
  pin_per_page : int64;
  poll_iter : int64;
  filter_cpu_base : int64;
  filter_cpu_per_byte : float;
  device_prog_per_elem : int64;
  app_request : int64;
}

let default =
  {
    cpu_ghz = 4.0;
    syscall = 450L;
    context_switch = 1300L;
    copy_base = 30L;
    copy_per_byte = 0.244; (* 4 KB ~ 1 us, per the paper *)
    malloc = 50L;
    free = 30L;
    kernel_net_per_pkt = 1800L;
    kernel_sock_demux = 300L;
    user_net_per_pkt = 250L;
    mtcp_batch_delay = 15000L; (* one event-loop batching quantum *)
    pcie_doorbell = 120L;
    tx_batch_window = 0L; (* 0 = ring per submission, bit-identical *)
    dma_base = 180L;
    dma_per_byte = 0.02;
    wire_latency = 600L;
    wire_per_byte = 0.08; (* 100 Gb/s line rate *)
    rdma_nic_proc = 250L;
    nvme_read = 12000L;
    nvme_write = 8000L;
    nvme_per_byte = 0.3;
    vfs_overhead = 1500L;
    register_region = 25000L;
    pin_per_page = 300L;
    poll_iter = 25L;
    filter_cpu_base = 40L;
    filter_cpu_per_byte = 0.05;
    device_prog_per_elem = 80L;
    app_request = 2000L;
  }

let scale base per_byte n =
  Int64.add base (Int64.of_float (per_byte *. float_of_int (Int.max 0 n)))

(* [scale] as an immediate int, for the device path's int clock. *)
let scale_ns base per_byte n =
  Int64.to_int base + Float.to_int (per_byte *. float_of_int (Int.max 0 n))

let copy_ns t n = scale t.copy_base t.copy_per_byte n
let dma_ns t n = scale_ns t.dma_base t.dma_per_byte n
let wire_ns t n = scale_ns t.wire_latency t.wire_per_byte n
let nvme_transfer_ns t n = scale 0L t.nvme_per_byte n
let filter_cpu_ns t n = scale t.filter_cpu_base t.filter_cpu_per_byte n

let cycles_to_ns t cycles =
  Int64.of_float (float_of_int cycles /. t.cpu_ghz)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>cpu_ghz=%.1f syscall=%Ldns ctx_switch=%Ldns copy=%Ld+%.3fns/B@ \
     malloc=%Ldns free=%Ldns kernel_net=%Ldns/pkt sock_demux=%Ldns \
     user_net=%Ldns/pkt mtcp_batch=%Ldns@ \
     pcie=%Ldns tx_batch=%Ldns dma=%Ld+%.3fns/B wire=%Ld+%.3fns/B \
     rdma_nic=%Ldns@ \
     nvme_r=%Ldns nvme_w=%Ldns nvme=%.2fns/B vfs=%Ldns@ \
     reg_region=%Ldns pin_page=%Ldns poll=%Ldns filter_cpu=%Ld+%.3fns/B \
     dev_prog=%Ldns app_req=%Ldns@]"
    t.cpu_ghz t.syscall t.context_switch t.copy_base t.copy_per_byte
    t.malloc t.free t.kernel_net_per_pkt t.kernel_sock_demux
    t.user_net_per_pkt t.mtcp_batch_delay t.pcie_doorbell t.tx_batch_window
    t.dma_base
    t.dma_per_byte t.wire_latency t.wire_per_byte t.rdma_nic_proc
    t.nvme_read t.nvme_write t.nvme_per_byte t.vfs_overhead
    t.register_region t.pin_per_page t.poll_iter t.filter_cpu_base
    t.filter_cpu_per_byte t.device_prog_per_elem t.app_request
