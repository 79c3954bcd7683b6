(* Batched vs unbatched equivalence. The doorbell-coalescing contract:
   [push_batch] / [submit_many] change how often the doorbell rings,
   never what the application observes. With a zero window the batched
   entry points are bit-identical to the per-op path — same delivered
   sequence, same final virtual clock, same doorbell count — and that
   must hold under every named fault plan, since fault draws key off
   the order of injection opportunities, which batching preserves. *)

module Setup = Dk_apps.Sim_setup
module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Engine = Dk_sim.Engine
module Sga = Dk_mem.Sga
module Fault = Dk_fault.Fault
module Block = Dk_device.Block

let check = Alcotest.check

let must = function
  | Ok v -> v
  | Error e -> failwith (Types.error_to_string e)

let rounds = 12
let per_round = 8

(* UDP blast a→b; returns (delivered payloads in order, final virtual
   clock, client tx doorbell rings). *)
let net_workload ~plan ~batch ~window () =
  let w = Setup.world ?fault_plan:plan Demikernel in
  let engine = w.engine and da = w.client and db = w.server in
  let sqd = Result.get_ok (Demi.socket db `Udp) in
  must (Demi.bind db sqd ~port:9);
  let received = ref [] in
  Dk_sched.Event_loop.on_message (Dk_sched.Event_loop.create db) sqd (fun sga ->
      received := Sga.to_string sga :: !received;
      Sga.free sga);
  let cqd = Result.get_ok (Demi.socket da `Udp) in
  must (Demi.connect da cqd ~dst:(Setup.endpoint w.b 9));
  Demi.set_batch_window da window;
  for r = 0 to rounds - 1 do
    let payloads =
      List.init per_round (fun i -> Printf.sprintf "r%02d-%02d" r i)
    in
    if batch then begin
      let toks = must (Demi.push_batch da cqd (List.map Sga.of_string payloads)) in
      match Demi.wait_all da toks with
      | Some _ -> ()
      | None -> Alcotest.fail "push_batch deadlocked"
    end
    else
      List.iter
        (fun p -> ignore (Demi.blocking_push da cqd (Sga.of_string p)))
        payloads;
    Engine.run engine
  done;
  Engine.run engine;
  ( List.rev !received,
    Engine.now engine,
    Dk_device.Nic.tx_doorbells w.a.Setup.nic )

let plan_of_name name =
  match Fault.named ~seed:42L name with
  | Some p -> p
  | None -> Alcotest.failf "unknown plan %s" name

let net_window0_identical plan_opt () =
  let seq_a, clock_a, rings_a = net_workload ~plan:plan_opt ~batch:false ~window:0L () in
  let seq_b, clock_b, rings_b = net_workload ~plan:plan_opt ~batch:true ~window:0L () in
  check (Alcotest.list Alcotest.string) "delivered sequence" seq_a seq_b;
  check Alcotest.int64 "final clock" clock_a clock_b;
  check Alcotest.int "doorbell rings" rings_a rings_b

(* A coalescing window changes when the doorbell rings, not what
   arrives: same delivered sequence, strictly fewer rings. *)
let net_window_coalesces () =
  let seq_0, _, rings_0 = net_workload ~plan:None ~batch:true ~window:0L () in
  let seq_w, _, rings_w = net_workload ~plan:None ~batch:true ~window:600L () in
  check (Alcotest.list Alcotest.string) "delivered sequence" seq_0 seq_w;
  if rings_w >= rings_0 then
    Alcotest.failf "window did not coalesce: %d rings vs %d" rings_w rings_0

(* NVMe: submit_many shares one SQ ring ([Doorbell.group]), so the
   clock legitimately differs from per-op submission; the completion
   stream (wr_id, status, data) must not. *)
let block_ops n =
  List.init n (fun i ->
      if i mod 3 = 2 then Block.Read { wr_id = i; lba = i mod 8 }
      else Block.Write { wr_id = i; lba = i mod 8; data = Printf.sprintf "blk-%02d" i })

let block_workload ~plan ~batch () =
  let fault = Fault.create () in
  Option.iter (Fault.install fault) plan;
  let engine = Engine.create () in
  let dev = Block.create ~engine ~cost:Dk_sim.Cost.default ~fault () in
  let rings0 = Block.sq_doorbells dev in
  let ops = block_ops 24 in
  let accepted =
    if batch then Block.submit_many dev ops
    else
      List.fold_left
        (fun acc op ->
          let ok =
            match op with
            | Block.Read { wr_id; lba } -> Block.submit_read dev ~wr_id ~lba
            | Block.Write { wr_id; lba; data } ->
                Block.submit_write dev ~wr_id ~lba data
          in
          acc + if ok then 1 else 0)
        0 ops
  in
  Engine.run engine;
  let rec drain acc =
    match Block.poll_cq dev with
    | Some c -> drain ((c.Block.wr_id, c.Block.status, c.Block.data) :: acc)
    | None -> List.rev acc
  in
  (accepted, drain [], Block.sq_doorbells dev - rings0)

let completion =
  Alcotest.testable
    (fun fmt (wr, _, data) ->
      Format.fprintf fmt "wr=%d data=%s" wr
        (match data with Some d -> String.escaped d | None -> "-"))
    ( = )

let block_batched_identical plan_opt () =
  let acc_a, seq_a, rings_a = block_workload ~plan:plan_opt ~batch:false () in
  let acc_b, seq_b, rings_b = block_workload ~plan:plan_opt ~batch:true () in
  check Alcotest.int "accepted" acc_a acc_b;
  check (Alcotest.list completion) "completion stream" seq_a seq_b;
  check Alcotest.int "per-op rings" (List.length (block_ops 24)) rings_a;
  check Alcotest.int "grouped rings" 1 rings_b

let plan_cases mk =
  List.map
    (fun (name, _) ->
      Alcotest.test_case name `Quick (mk (Some (plan_of_name name))))
    Fault.plan_names

let () =
  Alcotest.run "dk_batch"
    [
      ( "net window=0",
        Alcotest.test_case "no plan" `Quick (net_window0_identical None)
        :: plan_cases net_window0_identical );
      ("net window>0", [ Alcotest.test_case "coalesces" `Quick net_window_coalesces ]);
      ( "block grouped",
        Alcotest.test_case "no plan" `Quick (block_batched_identical None)
        :: plan_cases block_batched_identical );
    ]
