(** The same KV server and client on the legacy POSIX interface — the
    baseline the paper argues against.

    Every accept/read/write is a syscall; every byte of request and
    response crosses the user/kernel boundary by copy; requests arrive
    on a byte stream, so the server runs a framing decoder per
    connection and can only process a request once enough stream bytes
    have accumulated (§3.2). The event loop blocks in epoll. *)

type server

val start_server :
  posix:Dk_kernel.Posix.t ->
  cost:Dk_sim.Cost.t ->
  engine:Dk_sim.Engine.t ->
  port:int ->
  kv:Kv.t ->
  (server, Dk_kernel.Posix.error) result

val requests_served : server -> int

val run_client :
  posix:Dk_kernel.Posix.t ->
  engine:Dk_sim.Engine.t ->
  dst:Dk_net.Addr.endpoint ->
  ops:int ->
  keys:int ->
  value_size:int ->
  read_fraction:float ->
  unit ->
  (Kv_app.client_stats, Dk_kernel.Posix.error) result
