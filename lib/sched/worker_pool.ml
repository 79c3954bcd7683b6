module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Flight = Dk_obs.Flight
module Metrics = Dk_obs.Metrics

type mode = [ `Epoll_herd | `Qtoken ]

type stats = {
  jobs_done : int;
  wakeups : int;
  wasted_wakeups : int;
  dispatch_latency : Dk_sim.Histogram.t;
  makespan_ns : int64;
}

type job = { arrival : int64 }

(* Class-wide obs instruments (aggregated across pool runs); each run
   counts into its own instances of them. *)
let m_jobs_done = Metrics.counter "sched.pool.jobs_done"
let m_wakeups = Metrics.counter "sched.pool.wakeups"
let m_wasted = Metrics.counter "sched.pool.wasted_wakeups"

type state = {
  engine : Engine.t;
  cost : Cost.t;
  mode : mode;
  ready : job Queue.t;
  mutable idle : int list; (* idle worker ids *)
  jobs_done : Metrics.counter;
  wakeups : Metrics.counter;
  wasted : Metrics.counter;
  latency : Dk_sim.Histogram.t;
  service_ns : int64;
  total_jobs : int;
}

(* Execute [job] on worker [id]; when done, pull more ready work or go
   idle. *)
let rec execute st id job =
  Dk_sim.Histogram.record st.latency
    (Int64.sub (Engine.now st.engine) job.arrival);
  let finish () =
    Metrics.incr st.jobs_done;
    (* Look for more (unassigned) work without sleeping first. *)
    match Queue.take_opt st.ready with
    | Some next -> execute st id next
    | None -> st.idle <- id :: st.idle
  in
  ignore (Engine.after st.engine st.service_ns finish)

let flight_wakeup st what id =
  if Flight.start Flight.default ~now:(Engine.now st.engine) Flight.Wakeup
  then begin
    Flight.add_string Flight.default what;
    Flight.add_int Flight.default id;
    Flight.commit Flight.default
  end

(* Epoll mode: a woken worker races to the shared ready queue and may
   find nothing. *)
let herd_worker_wakes st id =
  Metrics.incr st.wakeups;
  flight_wakeup st "herd worker " id;
  match Queue.take_opt st.ready with
  | None ->
      (* Thundering herd loser: woke for nothing, back to sleep. *)
      Metrics.incr st.wasted;
      st.idle <- id :: st.idle
  | Some job ->
      (* Reading the data is a second syscall the qtoken interface
         avoids (wait returns the data directly). *)
      Dk_sim.Engine.consume st.engine st.cost.Cost.syscall;
      execute st id job

let job_arrives st =
  match st.mode with
  | `Epoll_herd ->
      Queue.add { arrival = Engine.now st.engine } st.ready;
      (* Wake every idle worker; each pays a context switch. *)
      let sleepers = st.idle in
      st.idle <- [];
      List.iter
        (fun id ->
          ignore
            (Engine.after st.engine st.cost.Cost.context_switch (fun () ->
                 herd_worker_wakes st id)))
        sleepers
  | `Qtoken -> (
      let job = { arrival = Engine.now st.engine } in
      (* Exactly one waiter holds this operation's token: the job is
         bound to that worker; nobody else can steal it or wake for
         it. *)
      match st.idle with
      | [] -> Queue.add job st.ready (* all busy; a finisher picks it up *)
      | id :: rest ->
          st.idle <- rest;
          ignore
            (Engine.after st.engine st.cost.Cost.context_switch (fun () ->
                 Metrics.incr st.wakeups;
                 flight_wakeup st "qtoken worker " id;
                 execute st id job)))

let run ~engine ~cost ~mode ~workers ~jobs ~mean_interarrival_ns ~service_ns
    ?(seed = 99L) () =
  if workers <= 0 || jobs <= 0 then invalid_arg "Worker_pool.run";
  let st =
    {
      engine;
      cost;
      mode;
      ready = Queue.create ();
      idle = List.init workers (fun i -> i);
      jobs_done = Metrics.instance m_jobs_done;
      wakeups = Metrics.instance m_wakeups;
      wasted = Metrics.instance m_wasted;
      latency = Dk_sim.Histogram.create ();
      service_ns;
      total_jobs = jobs;
    }
  in
  let rng = Dk_sim.Rng.create seed in
  let start = Engine.now engine in
  (* Poisson arrivals. *)
  let rec schedule_arrival n at =
    if n < jobs then begin
      ignore (Engine.at engine at (fun () -> job_arrives st));
      let gap = Dk_sim.Rng.exponential rng mean_interarrival_ns in
      schedule_arrival (n + 1) (Int64.add at (Int64.of_float gap))
    end
  in
  schedule_arrival 0 (Int64.add start 1L);
  ignore
    (Engine.run_until engine (fun () ->
         Metrics.value st.jobs_done >= st.total_jobs));
  {
    jobs_done = Metrics.value st.jobs_done;
    wakeups = Metrics.value st.wakeups;
    wasted_wakeups = Metrics.value st.wasted;
    dispatch_latency = st.latency;
    makespan_ns = Int64.sub (Engine.now engine) start;
  }
