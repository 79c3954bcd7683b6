(* The span names the benchmark records, one per layer boundary it
   calls across. *)

let round = Trace.name "round"
let setup = Trace.name "setup"
let world = Trace.name "setup.world"
let connect = Trace.name "setup.connect"
let warmup = Trace.name "setup.warmup"
let window = Trace.name "window"
let teardown = Trace.name "teardown"
let sga = Trace.name "core.sga"
let push = Trace.name "core.push"
let pop = Trace.name "core.pop"
let wait = Trace.name "core.wait"
let step = Trace.name "sim.step"
let verify = Trace.name "apps.verify"
let loadgen = Trace.name "apps.loadgen.run"
let drive = Trace.name "apps.loadgen.drive"
