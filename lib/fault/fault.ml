type site =
  | Nic_rx_drop
  | Nic_tx_drop
  | Nic_rx_dup
  | Nic_rx_corrupt
  | Fabric_drop
  | Fabric_dup
  | Fabric_reorder
  | Fabric_corrupt
  | Fabric_partition
  | Block_stall
  | Block_error
  | Block_torn_write
  | Rdma_qp_break

let sites =
  [
    Nic_rx_drop;
    Nic_tx_drop;
    Nic_rx_dup;
    Nic_rx_corrupt;
    Fabric_drop;
    Fabric_dup;
    Fabric_reorder;
    Fabric_corrupt;
    Fabric_partition;
    Block_stall;
    Block_error;
    Block_torn_write;
    Rdma_qp_break;
  ]

let site_name = function
  | Nic_rx_drop -> "nic.rx_drop"
  | Nic_tx_drop -> "nic.tx_drop"
  | Nic_rx_dup -> "nic.rx_dup"
  | Nic_rx_corrupt -> "nic.rx_corrupt"
  | Fabric_drop -> "fabric.drop"
  | Fabric_dup -> "fabric.dup"
  | Fabric_reorder -> "fabric.reorder"
  | Fabric_corrupt -> "fabric.corrupt"
  | Fabric_partition -> "fabric.partition"
  | Block_stall -> "block.stall"
  | Block_error -> "block.error"
  | Block_torn_write -> "block.torn_write"
  | Rdma_qp_break -> "rdma.qp_break"

let describe = function
  | Nic_rx_drop -> "receive ring drops the frame before it is enqueued"
  | Nic_tx_drop -> "transmitted frame DMAs but never reaches the wire"
  | Nic_rx_dup -> "receive ring enqueues the frame twice"
  | Nic_rx_corrupt -> "one bit of the received frame flips (checksums catch it)"
  | Fabric_drop -> "in-flight frame is lost"
  | Fabric_dup -> "in-flight frame is delivered twice"
  | Fabric_reorder -> "frame is delayed past its successors (wire FIFO waived)"
  | Fabric_corrupt -> "one bit flips on the wire"
  | Fabric_partition -> "link is down: every frame in the window is lost"
  | Block_stall -> "NVMe completion is delayed by the spec's magnitude"
  | Block_error -> "NVMe completion returns `Io_error"
  | Block_torn_write -> "write persists a prefix only, yet reports `Ok"
  | Rdma_qp_break -> "queue pair is severed; the post completes `Qp_broken"

(* Position in [sites]. It runs on every fault check, i.e. on every
   frame touching an instrumented edge, armed or not, so it is a jump
   table rather than a scan. *)
let site_index = function
  | Nic_rx_drop -> 0
  | Nic_tx_drop -> 1
  | Nic_rx_dup -> 2
  | Nic_rx_corrupt -> 3
  | Fabric_drop -> 4
  | Fabric_dup -> 5
  | Fabric_reorder -> 6
  | Fabric_corrupt -> 7
  | Fabric_partition -> 8
  | Block_stall -> 9
  | Block_error -> 10
  | Block_torn_write -> 11
  | Rdma_qp_break -> 12

let n_sites = List.length sites

type spec = {
  rate : float;
  from_ns : int64;
  until_ns : int64 option;
  max_count : int option;
  magnitude_ns : int64;
}

let spec ~rate ?(from_ns = 0L) ?until_ns ?max_count
    ?(magnitude_ns = 100_000L) () =
  { rate; from_ns; until_ns; max_count; magnitude_ns }

type plan = { seed : int64; plan_name : string; specs : (site * spec) list }

let plan ~seed ?(name = "custom") specs = { seed; plan_name = name; specs }

(* ---- named plans: the scenario library ---- *)

let plan_names =
  [
    ("loss-burst", "25% fabric loss between 100us and 700us");
    ("partition-heal", "total partition from 150us, healing at 1.5ms");
    ("partition", "total partition from 200us that never heals");
    ("corrupt-wire", "4% of frames get one bit flipped on the wire");
    ("dup-storm", "frames duplicated on the wire and in the rx ring");
    ("reorder", "30% of frames delayed past their successors");
    ("nic-flaky", "rx/tx rings drop frames between 100us and 900us");
    ("slow-disk", "half of NVMe completions stall an extra 2ms");
    ("flaky-disk", "30% of NVMe completions error, 12-injection budget");
    ("broken-disk", "every NVMe completion errors from 50us on");
    ("torn-write", "exactly one write persists a prefix yet reports Ok");
    ("rdma-break", "the queue pair severs on one post");
  ]

let named ~seed name =
  let mk specs = Some (plan ~seed ~name specs) in
  match name with
  | "loss-burst" ->
      mk
        [
          ( Fabric_drop,
            spec ~rate:0.25 ~from_ns:100_000L ~until_ns:700_000L () );
        ]
  | "partition-heal" ->
      mk
        [
          ( Fabric_partition,
            spec ~rate:1.0 ~from_ns:150_000L ~until_ns:1_500_000L () );
        ]
  | "partition" ->
      mk [ (Fabric_partition, spec ~rate:1.0 ~from_ns:200_000L ()) ]
  | "corrupt-wire" -> mk [ (Fabric_corrupt, spec ~rate:0.04 ()) ]
  | "dup-storm" ->
      mk
        [
          (Fabric_dup, spec ~rate:0.25 ~magnitude_ns:2_000L ());
          (Nic_rx_dup, spec ~rate:0.15 ());
        ]
  | "reorder" -> mk [ (Fabric_reorder, spec ~rate:0.3 ~magnitude_ns:50_000L ()) ]
  | "nic-flaky" ->
      mk
        [
          (Nic_rx_drop, spec ~rate:0.15 ~from_ns:100_000L ~until_ns:900_000L ());
          (Nic_tx_drop, spec ~rate:0.1 ~from_ns:100_000L ~until_ns:900_000L ());
        ]
  | "slow-disk" ->
      mk [ (Block_stall, spec ~rate:0.5 ~magnitude_ns:2_000_000L ()) ]
  | "flaky-disk" -> mk [ (Block_error, spec ~rate:0.3 ~max_count:12 ()) ]
  | "broken-disk" -> mk [ (Block_error, spec ~rate:1.0 ~from_ns:50_000L ()) ]
  | "torn-write" -> mk [ (Block_torn_write, spec ~rate:1.0 ~max_count:1 ()) ]
  | "rdma-break" -> mk [ (Rdma_qp_break, spec ~rate:1.0 ~max_count:1 ()) ]
  | _ -> None

(* ---- the injection engine ---- *)

(* Injection counters live in the default obs registry so `demi stats`
   and the bench JSON dumps surface them; they are created eagerly so a
   snapshot lists every site even at zero. *)
let injected_counter site =
  Dk_obs.Metrics.counter ("fault." ^ site_name site ^ ".injected")

let all_counters = Array.of_list (List.map injected_counter sites)
[@@shard.immutable
  "array of obs counter handles, filled once at module init and only read \
   afterwards"]

module Flight = Dk_obs.Flight

type armed = {
  aspec : spec;
  rng : Dk_sim.Rng.t;
  (* injections under the current installation: an instance of the
     site's [fault.<site>.injected] counter *)
  shots : Dk_obs.Metrics.counter;
}

type t = { slots : armed option array (* indexed by site_index *) }

let create () = { slots = Array.make n_sites None }

(* Per-site RNG stream: seed ⊕ a site-specific odd constant, mixed by
   the Rng itself. Streams are independent across sites, so arming one
   site never shifts another's draws. *)
let site_stream seed site =
  Dk_sim.Rng.create
    (Int64.logxor seed
       (Int64.mul 0x2545f4914f6cdd1dL (Int64.of_int (site_index site + 1))))

let install t p =
  Array.fill t.slots 0 n_sites None;
  List.iter
    (fun (site, aspec) ->
      let i = site_index site in
      t.slots.(i) <-
        Some
          {
            aspec;
            rng = site_stream p.seed site;
            shots = Dk_obs.Metrics.instance all_counters.(i);
          })
    p.specs

let injected t site =
  match t.slots.(site_index site) with
  | None -> 0
  | Some a -> Dk_obs.Metrics.value a.shots

let total_injected t =
  List.fold_left (fun acc s -> acc + injected t s) 0 sites

(* [now] is the engine's int clock; the window stays int64, as its
   plan spells it. *)
let in_window aspec now =
  Int64.compare (Int64.of_int now) aspec.from_ns >= 0
  && (match aspec.until_ns with
     | None -> true
     | Some u -> Int64.compare (Int64.of_int now) u < 0)

let fire t site ~now =
  match t.slots.(site_index site) with
  | None -> false
  | Some a ->
      let budget_left =
        match a.aspec.max_count with
        | None -> true
        | Some m -> Dk_obs.Metrics.value a.shots < m
      in
      if (not budget_left) || a.aspec.rate <= 0.0 || not (in_window a.aspec now)
      then false
      else begin
        let hit =
          a.aspec.rate >= 1.0 || Dk_sim.Rng.bool a.rng a.aspec.rate
        in
        if hit then begin
          Dk_obs.Metrics.incr a.shots;
          if Flight.start Flight.default ~now:(Int64.of_int now) Flight.Drop
          then begin
            Flight.add_string Flight.default "fault injected: ";
            Flight.add_string Flight.default (site_name site);
            Flight.add_string Flight.default " (#";
            Flight.add_int Flight.default (Dk_obs.Metrics.value a.shots);
            Flight.add_string Flight.default ")";
            Flight.commit Flight.default
          end
        end;
        hit
      end

let magnitude t site =
  match t.slots.(site_index site) with
  | None -> 0L
  | Some a -> a.aspec.magnitude_ns

let draw t site bound =
  match t.slots.(site_index site) with
  | None -> 0
  | Some a -> if bound <= 0 then 0 else Dk_sim.Rng.int a.rng bound

let mangle t site ~now frame =
  if String.length frame = 0 || not (fire t site ~now) then None
  else begin
    let bit = draw t site (String.length frame * 8) in
    let b = Bytes.of_string frame in
    let i = bit / 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
    Some (Bytes.to_string b)
  end
  [@@hot.alloc
    "fault injection materializes the corrupted frame copy — only when \
     the site actually fires"]

let extra_delay t site ~now =
  if not (fire t site ~now) then 0
  else
    let m = Int64.to_int (magnitude t site) in
    match site with
    | Fabric_reorder ->
        (* Vary the push-back so a burst of reordered frames does not
           collapse back into FIFO order. *)
        m + draw t site (1 + m)
    | _ -> m

let cut_point t site ~len =
  if len <= 1 then 0 else 1 + draw t site (len - 1)
