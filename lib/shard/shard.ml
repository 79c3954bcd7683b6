(* One shard: a shared-nothing slice of the datapath pinned to one
   virtual core. The shard owns everything it touches — its own
   world (Sim_setup.world: discrete-event engine = its core's clock,
   switched fabric, hosts, Demikernel instances — and with them qd
   tables, token waitsets, ready FIFOs, memory manager, TCP state,
   doorbell windows — and fault domain), its own KV store and its own
   workload RNG. Nothing here is reachable from another shard except
   through an explicit [Xmailbox]; dk-shard (`dune build @analyze`)
   enforces that no module-level state crept in. *)

module Rng = Dk_sim.Rng
module Metrics = Dk_obs.Metrics
module Sim_setup = Dk_apps.Sim_setup
module Demi = Demikernel.Demi

type t = {
  id : int;
  w : Demi.t Sim_setup.world;
  kv : Dk_apps.Kv.t;
  rng : Rng.t;
  h_rtt : Metrics.hist;
  c_ops : Metrics.counter;
  c_remote : Metrics.counter;
  c_flows : Metrics.counter;
}

let obs_name id rest = Printf.sprintf "shard%d.%s" id rest

let create ~id ?cost ?fault_plan ?programmable ~seed () =
  let w =
    Sim_setup.world ~id ?cost ?fault_plan ?programmable Sim_setup.Demikernel
  in
  let kv = Dk_apps.Kv.create (Demi.manager w.server) in
  (* Independent per-shard stream derived from the run seed: shard i's
     draws never depend on how many draws other shards made. *)
  let rng =
    Rng.create
      (Int64.logxor seed (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int (id + 1))))
  in
  {
    id;
    w;
    kv;
    rng;
    h_rtt = Metrics.hist (obs_name id "app.client.rtt");
    c_ops = Metrics.counter (obs_name id "app.client.ops");
    c_remote = Metrics.counter (obs_name id "app.client.remote");
    c_flows = Metrics.counter (obs_name id "device.rss.flows");
  }

let id t = t.id
let engine t = t.w.engine
let client_host t = t.w.a
let cost t = t.w.cost
let demi_client t = t.w.client
let demi_server t = t.w.server
let kv t = t.kv
let rng t = t.rng
let server_endpoint t port = Sim_setup.endpoint t.w.b port
let rtt_hist t = t.h_rtt
let ops_counter t = t.c_ops
let remote_counter t = t.c_remote
let flows_counter t = t.c_flows
