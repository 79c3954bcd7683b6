(* One shard: a shared-nothing slice of the datapath pinned to one
   virtual core. The shard owns everything it touches — its own
   discrete-event engine (= its core's clock), its own switched fabric
   and hosts, its own Demikernel instances (and with them qd tables,
   token waitsets, ready FIFOs, memory manager, TCP state, doorbell
   windows), its own KV store, its own fault domain and its own
   workload RNG. Nothing here is reachable from another shard except
   through an explicit [Xmailbox]; `dune build @shard` enforces that
   no module-level state crept in. *)

module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Rng = Dk_sim.Rng
module Fault = Dk_fault.Fault
module Metrics = Dk_obs.Metrics
module Sim_setup = Dk_apps.Sim_setup
module Demi = Demikernel.Demi

type t = {
  id : int;
  engine : Engine.t;
  fabric : Dk_device.Fabric.t;
  cost : Cost.t;
  fault : Fault.t;
  client : Sim_setup.host;
  server : Sim_setup.host;
  demi_client : Demi.t;
  demi_server : Demi.t;
  kv : Dk_apps.Kv.t;
  rng : Rng.t;
  h_rtt : Metrics.hist;
  c_ops : Metrics.counter;
  c_remote : Metrics.counter;
  c_flows : Metrics.counter;
}

let obs_name id rest = Printf.sprintf "shard%d.%s" id rest

(* Distinct per-shard subnets/MAC indices: nothing collides even though
   each shard also has its own private fabric. *)
let client_ip id = Printf.sprintf "10.%d.0.1" (id land 0xff)
let server_ip id = Printf.sprintf "10.%d.0.2" (id land 0xff)

let create ~id ?(cost = Cost.default) ?fault_plan ?(programmable = false) ~seed
    () =
  if id < 0 then invalid_arg "Shard.create: negative id";
  let fault = Fault.create () in
  (match fault_plan with Some p -> Fault.install fault p | None -> ());
  let engine, fabric, cost = Sim_setup.make_engine ~fault ~cost () in
  let client =
    Sim_setup.add_host ~engine ~cost ~fabric ~index:((2 * id) + 1)
      ~ip:(client_ip id) ~fault ()
  in
  let server =
    Sim_setup.add_host ~engine ~cost ~fabric ~index:((2 * id) + 2)
      ~ip:(server_ip id) ~fault ~programmable ()
  in
  let demi_client = Sim_setup.demi_of_host ~engine ~cost client () in
  let demi_server = Sim_setup.demi_of_host ~engine ~cost server () in
  let kv = Dk_apps.Kv.create (Demi.manager demi_server) in
  (* Independent per-shard stream derived from the run seed: shard i's
     draws never depend on how many draws other shards made. *)
  let rng =
    Rng.create
      (Int64.logxor seed (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int (id + 1))))
  in
  {
    id;
    engine;
    fabric;
    cost;
    fault;
    client;
    server;
    demi_client;
    demi_server;
    kv;
    rng;
    h_rtt = Metrics.hist (obs_name id "app.client.rtt");
    c_ops = Metrics.counter (obs_name id "app.client.ops");
    c_remote = Metrics.counter (obs_name id "app.client.remote");
    c_flows = Metrics.counter (obs_name id "device.rss.flows");
  }

let id t = t.id
let engine t = t.engine
let fabric t = t.fabric
let client_host t = t.client
let cost t = t.cost
let fault t = t.fault
let demi_client t = t.demi_client
let demi_server t = t.demi_server
let kv t = t.kv
let rng t = t.rng
let server_endpoint t port = Sim_setup.endpoint t.server port
let rtt_hist t = t.h_rtt
let ops_counter t = t.c_ops
let remote_counter t = t.c_remote
let flows_counter t = t.c_flows
