module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Fault = Dk_fault.Fault
module Nic = Dk_device.Nic
module Fabric = Dk_device.Fabric
module Addr = Dk_net.Addr
module Stack = Dk_net.Stack
module Demi = Demikernel.Demi

type host = { nic : Nic.t; stack : Stack.t; ip : Addr.ip }

let attach ~engine ~cost ~fabric ?fault ?programmable ?pkt_cost ~index ~ip () =
  let nic =
    Nic.create ~engine ~cost ?fault ~mac:(Addr.mac_of_index index)
      ?programmable ()
  in
  Fabric.attach fabric nic;
  let ip = Addr.ip_of_string ip in
  { nic; stack = Stack.create ~engine ~cost ~nic ~ip ?pkt_cost (); ip }

let add_host ~engine ~cost ~fabric ~index ~ip () =
  attach ~engine ~cost ~fabric ~index ~ip ()

let demi_of_host ~engine ~cost host ?block ?rdma () =
  Demi.create ~engine ~cost ~stack:host.stack ?block ?rdma ()

type _ os =
  | Demikernel : Demi.t os
  | Kernel : Dk_kernel.Posix.t os
  | Mtcp : Dk_kernel.Mtcp.t os
  | Fallback : Demi.t os

type 'os world = {
  os : 'os os;
  engine : Engine.t;
  fabric : Fabric.t;
  cost : Cost.t;
  fault : Fault.t;
  a : host;
  b : host;
  client : 'os;
  server : 'os;
}

let per_packet (type a) cost : a os -> int64 = function
  | Kernel | Fallback -> cost.Cost.kernel_net_per_pkt
  | Demikernel | Mtcp -> cost.Cost.user_net_per_pkt

let instance (type a) (os : a os) ~engine ~cost ?block host : a =
  let posix () = Dk_kernel.Posix.create ~engine ~cost ~stack:host.stack () in
  match (os, block) with
  | Demikernel, _ -> demi_of_host ~engine ~cost host ?block ()
  | Kernel, None -> posix ()
  | Fallback, None -> Demi.create ~engine ~cost ~posix:(posix ()) ()
  | Mtcp, None -> Dk_kernel.Mtcp.create ~engine ~cost ~stack:host.stack ()
  | (Kernel | Mtcp | Fallback), Some _ ->
      invalid_arg "Sim_setup.world: only Demikernel takes a block device"

let world ?(id = 0) ?fault_plan ?loss ?(cost = Cost.default)
    ?(programmable = false) ?(block = false) os =
  if id < 0 then invalid_arg "Sim_setup.world: negative id";
  let fault = Fault.create () in
  Option.iter (Fault.install fault) fault_plan;
  let engine = Engine.create () in
  let fabric = Fabric.create ~engine ~cost ~fault ?loss () in
  let host k =
    attach ~engine ~cost ~fabric ~fault ~programmable
      ~pkt_cost:(per_packet cost os) ~index:((2 * id) + k)
      ~ip:(Printf.sprintf "10.%d.0.%d" (id land 0xff) k)
      ()
  in
  let a = host 1 in
  let b = host 2 in
  let block =
    if block then Some (Dk_device.Block.create ~engine ~cost ~fault ())
    else None
  in
  let client = instance os ~engine ~cost ?block a in
  let server = instance os ~engine ~cost b in
  { os; engine; fabric; cost; fault; a; b; client; server }

let endpoint host port = Addr.endpoint host.ip port
