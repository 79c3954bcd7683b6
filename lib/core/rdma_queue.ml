module Rdma = Dk_device.Rdma

(* Size of each posted receive buffer: the largest message a push may
   carry. *)
let recv_size = 16384

type state = {
  tokens : Token.t;
  manager : Dk_mem.Manager.t;
  qp : Rdma.qp;
  mbox : Mailbox.t;
  mutable credits : int;
  pending_sends : (Dk_mem.Sga.t * Types.qtoken) Queue.t;
  inflight : Types.qtoken Dk_util.Itbl.t; (* send wr_id -> token *)
  mutable next_wr : int;
  mutable closed : bool;
}

let fresh_wr st =
  let id = st.next_wr in
  st.next_wr <- st.next_wr + 1;
  id

let replenish st =
  match Dk_mem.Manager.alloc st.manager recv_size with
  | Some buf -> Rdma.post_recv st.qp ~wr_id:(fresh_wr st) buf
  | None -> () (* arena exhausted: the peer will see backpressure *)

let drain_recv st =
  let rec loop () =
    match Rdma.poll_recv_cq st.qp with
    | None -> ()
    | Some { Rdma.status = `Ok; len; buffer = Some buf; _ } ->
        (* Zero-copy delivery: hand the app a right-sized view. *)
        let view = Dk_mem.Buffer.sub buf 0 len in
        Dk_mem.Buffer.free buf;
        Mailbox.deliver st.mbox (Types.Popped (Dk_mem.Sga.of_buffers [ view ]));
        replenish st;
        loop ()
    | Some { Rdma.buffer = Some buf; _ } ->
        (* Errored receive: recycle the buffer and keep the slot. *)
        Dk_mem.Buffer.free buf;
        replenish st;
        loop ()
    | Some { Rdma.buffer = None; _ } -> loop ()
  in
  loop ()

let status_to_result = function
  | `Ok -> Types.Pushed
  | `Rnr -> Types.Failed `Would_block
  | `Not_registered | `Too_long | `Rkey -> Types.Failed `Not_supported
  | `Not_connected -> Types.Failed `Queue_closed
  | `Qp_broken -> Types.Failed `Conn_aborted

let rec issue_send st sga tok =
  if st.credits > 0 then begin
    st.credits <- st.credits - 1;
    let wr = fresh_wr st in
    Dk_util.Itbl.replace st.inflight wr tok;
    Rdma.post_send st.qp ~wr_id:wr sga
  end
  else Queue.add (sga, tok) st.pending_sends

and drain_send st =
  let rec loop () =
    match Rdma.poll_send_cq st.qp with
    | None -> ()
    | Some { Rdma.wr_id; status; _ } ->
        (* A broken QP is terminal: nothing queued behind this send can
           ever complete, and no more receives will arrive. Fail the
           lot with [`Conn_aborted] instead of letting waiters hang. *)
        if status = `Qp_broken then begin
          Mailbox.fail st.mbox `Conn_aborted;
          Queue.iter
            (fun (_, qtok) ->
              Token.complete st.tokens qtok (Types.Failed `Conn_aborted))
            st.pending_sends;
          Queue.clear st.pending_sends
        end;
        (match Dk_util.Itbl.find_opt st.inflight wr_id with
        | Some tok ->
            Dk_util.Itbl.remove st.inflight wr_id;
            st.credits <- st.credits + 1;
            Token.complete st.tokens tok (status_to_result status)
        | None -> ());
        loop ()
  in
  loop ();
  (* Freed credits may unblock queued pushes. *)
  let rec drain_pending () =
    if st.credits > 0 then
      match Queue.take_opt st.pending_sends with
      | Some (sga, tok) ->
          issue_send st sga tok;
          drain_pending ()
      | None -> ()
  in
  drain_pending ()

let create ~tokens ~manager ~qp ?(depth = 64) () =
  if depth <= 0 then invalid_arg "Rdma_queue.create";
  let st =
    {
      tokens;
      manager;
      qp;
      mbox = Mailbox.create tokens;
      credits = depth;
      pending_sends = Queue.create ();
      inflight = Dk_util.Itbl.create 16;
      next_wr = 1;
      closed = false;
    }
  in
  (* Pre-post the receive ring: the buffer-management burden §2
     describes, hidden from the application. *)
  for _ = 1 to depth do
    replenish st
  done;
  if Rdma.recv_posted qp < depth then Error `No_memory
  else begin
    Rdma.set_recv_notify qp (fun () -> drain_recv st);
    Rdma.set_send_notify qp (fun () -> drain_send st);
    Ok
      {
        Qimpl.kind = "rdma";
        push =
          (fun sga tok ->
            if st.closed then Token.complete tokens tok (Types.Failed `Queue_closed)
            else if Dk_mem.Sga.length sga > recv_size then
              Token.complete tokens tok (Types.Failed `Not_supported)
            else issue_send st sga tok);
        pop = (fun tok -> Mailbox.pop st.mbox tok);
        close =
          (fun () ->
            st.closed <- true;
            Mailbox.close st.mbox);
      }
  end
