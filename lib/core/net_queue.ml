module Tcp = Dk_net.Tcp
module Stack = Dk_net.Stack
module Framing = Dk_net.Framing

(* ---- TCP connection queues ---- *)

(* Connections torn down by RTO exhaustion (give-up after bounded
   exponential backoff), surfaced to waiters as [`Conn_aborted]. *)
let m_aborted = Dk_obs.Metrics.counter "core.tcp.aborted"

(* A push not yet fully handed to the stack: its framed bytes, a
   cursor past the bytes TCP has taken, and its token. *)
type staged = { data : string; mutable cursor : int; tok : Types.qtoken }

type conn_state = {
  tokens : Token.t;
  conn : Tcp.conn;
  mbox : Mailbox.t;
  decoder : Framing.decoder;
  txq : staged Queue.t;
}

(* Directly recursive drain (no progress ref, no inner loop): recurse
   to the next staged push only after the head buffer fully drains.
   A partial send only moves the cursor, so a push larger than the
   free send-ring space is copied once in all. *)
let rec pump_tx st =
  match Queue.peek_opt st.txq with
  | None -> ()
  | Some s ->
      let n = Tcp.send st.conn ~off:s.cursor s.data in
      if n > 0 then begin
        s.cursor <- s.cursor + n;
        if s.cursor = String.length s.data then begin
          ignore (Queue.pop st.txq);
          Token.complete st.tokens s.tok Types.Pushed;
          pump_tx st
        end
      end
  [@@hot]

(* A stream whose framing is corrupt is reset, not decoded: [on_close]
   (see [of_conn]) then fails this connection alone. *)
let rec drain_rx st =
  match Framing.next_sga st.decoder with
  | Some sga ->
      Mailbox.deliver st.mbox (Types.Popped sga);
      drain_rx st
  | None -> if Framing.corrupt st.decoder then Tcp.abort st.conn

let recv conn buf off len = Ok (Tcp.recv_into conn buf off len)

(* The receive ring is copied straight into the decoder's backlog, and
   each message once more into its own store. *)
let pump_rx st =
  let avail = Tcp.recv_ready st.conn in
  if avail > 0 then begin
    ignore (Framing.fill st.decoder avail recv st.conn);
    drain_rx st
  end
  [@@hot]

let fail_tx st err =
  Queue.iter
    (fun s -> Token.complete st.tokens s.tok (Types.Failed err))
    st.txq;
  Queue.clear st.txq

let of_conn ~tokens ~conn () =
  let st =
    {
      tokens;
      conn;
      mbox = Mailbox.create tokens;
      decoder = Framing.create ();
      txq = Queue.create ();
    }
  in
  Tcp.set_on_readable conn (fun () -> pump_rx st);
  Tcp.set_on_writable conn (fun () -> pump_tx st);
  Tcp.set_on_peer_fin conn (fun () -> Mailbox.close st.mbox);
  Tcp.set_on_close conn (fun reason ->
      let err =
        if Framing.corrupt st.decoder then begin
          (* We reset it: the peer's byte stream cannot be decoded. The
             counter registers at the first rejection only. *)
          Dk_obs.Metrics.incr (Dk_obs.Metrics.counter "net.framing.rejected");
          `Conn_aborted
        end
        else
          match reason with
          | `Normal -> `Queue_closed
          | `Reset -> `Refused
          (* RTO retries exhausted (the peer is partitioned or dead):
             ECONNABORTED, so `Demi.wait` returns instead of hanging. *)
          | `Timeout ->
              Dk_obs.Metrics.incr m_aborted;
              `Conn_aborted
      in
      fail_tx st err;
      Mailbox.fail st.mbox err);
  {
    Qimpl.kind = "tcp";
    push =
      (fun sga tok ->
        match Tcp.state conn with
        | Tcp.Established | Tcp.Close_wait | Tcp.Syn_sent | Tcp.Syn_rcvd ->
            if Framing.fits sga then begin
              let data = Framing.encode_sga sga in
              Queue.add { data; cursor = 0; tok } st.txq;
              pump_tx st
            end
            else Token.complete tokens tok (Types.Failed `Not_supported)
        | _ -> Token.complete tokens tok (Types.Failed `Queue_closed));
    pop = (fun tok -> Mailbox.pop st.mbox tok);
    close = (fun () -> Tcp.close conn);
  }

(* ---- listeners ---- *)

let listener ~tokens ~stack ~port ~register () =
  let mbox = Mailbox.create tokens in
  match
    Stack.tcp_listen stack ~port ~on_accept:(fun conn ->
        let impl = of_conn ~tokens ~conn () in
        let qd = register impl in
        Mailbox.deliver mbox (Types.Accepted qd))
  with
  | Error `In_use -> Error `In_use
  | Ok () ->
      Ok
        {
          Qimpl.kind = "tcp-listen";
          push =
            (fun _ tok -> Token.complete tokens tok (Types.Failed `Not_supported));
          pop = (fun tok -> Mailbox.pop mbox tok);
          close =
            (fun () ->
              Stack.tcp_unlisten stack ~port;
              Mailbox.close mbox);
        }

(* ---- UDP datagram queues ---- *)

let udp ~tokens ~stack ~port ~peer () =
  let mbox = Mailbox.create tokens in
  match
    Stack.udp_bind stack ~port ~recv:(fun ~src:_ payload ->
        Mailbox.deliver mbox (Types.Popped (Dk_mem.Sga.of_strings [ payload ])))
  with
  | Error `In_use -> Error `In_use
  | Ok () ->
      Ok
        {
          Qimpl.kind = "udp";
          push =
            (fun sga tok ->
              match !peer with
              | None -> Token.complete tokens tok (Types.Failed `Not_supported)
              | Some dst ->
                  (* One datagram per sga: naturally atomic, no framing.
                     One too big for a datagram is refused whole. *)
                  match
                    Stack.udp_send stack ~src_port:port ~dst
                      (Dk_mem.Sga.to_string sga)
                  with
                  | Ok () -> Token.complete tokens tok Types.Pushed
                  | Error `Too_big ->
                      Token.complete tokens tok (Types.Failed `Not_supported));
          pop = (fun tok -> Mailbox.pop mbox tok);
          close =
            (fun () ->
              Stack.udp_unbind stack ~port;
              Mailbox.close mbox);
        }
