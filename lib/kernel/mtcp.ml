module Stack = Dk_net.Stack
module Tcp = Dk_net.Tcp

type t = {
  engine : Dk_sim.Engine.t;
  cost : Dk_sim.Cost.t;
  stack : Stack.t;
  mutable bytes_copied : int;
}

type conn = {
  owner : t;
  tcp : Tcp.conn;
  rx : Dk_util.Ring.t; (* batch-delivered received bytes *)
  mutable held : bool; (* the last move left bytes in TCP: [rx] was full *)
  mutable tx : string; (* bytes awaiting the next flush batch ... *)
  mutable tx_off : int; (* ... from this cursor on *)
  mutable flush_scheduled : bool;
  mutable on_connect : unit -> unit;
  mutable on_readable : unit -> unit;
}

let unsent conn = String.length conn.tx - conn.tx_off

(* Hand TCP what it takes of the unsent bytes; only the cursor moves. *)
let push_tx conn =
  conn.tx_off <- conn.tx_off + Tcp.send conn.tcp ~off:conn.tx_off conn.tx

let create ~engine ~cost ~stack () =
  { engine; cost; stack; bytes_copied = 0 }

let charge_copy t n =
  t.bytes_copied <- t.bytes_copied + n;
  Dk_sim.Engine.consume t.engine (Dk_sim.Cost.copy_ns t.cost n)

let batch t = t.cost.Dk_sim.Cost.mtcp_batch_delay

(* Move what fits of the stack's bytes into the app-visible ring, one
   batch delay from now. What does not fit stays in TCP's receive ring,
   whose closing window holds the sender back; [recv] schedules the
   next move once it frees room. *)
let schedule_move conn =
  let t = conn.owner in
  ignore
    (Dk_sim.Engine.after t.engine (batch t) (fun () ->
         let n =
           Int.min (Tcp.recv_ready conn.tcp) (Dk_util.Ring.available conn.rx)
         in
         if n > 0 then
           ignore (Dk_util.Ring.write_string conn.rx (Tcp.recv conn.tcp n));
         conn.held <- Tcp.recv_ready conn.tcp > 0;
         if n > 0 then conn.on_readable ()))

let wire conn =
  Tcp.set_on_readable conn.tcp (fun () -> schedule_move conn);
  Tcp.set_on_writable conn.tcp (fun () ->
      if unsent conn > 0 then push_tx conn);
  Tcp.set_on_connect conn.tcp (fun () -> conn.on_connect ())

let make owner tcp =
  let conn =
    {
      owner;
      tcp;
      rx = Dk_util.Ring.create (1 lsl 20);
      held = false;
      tx = "";
      tx_off = 0;
      flush_scheduled = false;
      on_connect = (fun () -> ());
      on_readable = (fun () -> ());
    }
  in
  wire conn;
  conn

let listen t ~port ~on_accept =
  Stack.tcp_listen t.stack ~port ~on_accept:(fun tcp ->
      on_accept (make t tcp))

let connect t ~dst = make t (Stack.tcp_connect t.stack ~dst)

(* Re-armed each batch while bytes are unsent. A closed connection
   takes nothing more: its unsent tail is dropped and the flush stops. *)
let rec schedule_flush conn =
  if not conn.flush_scheduled then begin
    conn.flush_scheduled <- true;
    let t = conn.owner in
    ignore
      (Dk_sim.Engine.after t.engine (batch t) (fun () ->
           conn.flush_scheduled <- false;
           if Tcp.state conn.tcp = Tcp.Closed then
             conn.tx_off <- String.length conn.tx
           else if unsent conn > 0 then begin
             push_tx conn;
             if unsent conn > 0 then schedule_flush conn
           end))
  end

let send conn data =
  charge_copy conn.owner (String.length data);
  conn.tx <-
    (if unsent conn = 0 then data
     else String.sub conn.tx conn.tx_off (unsent conn) ^ data);
  conn.tx_off <- 0;
  schedule_flush conn;
  String.length data

let recv_ready conn = Dk_util.Ring.length conn.rx

let recv conn n =
  let n = min n (recv_ready conn) in
  let buf = Bytes.create n in
  let got = Dk_util.Ring.read conn.rx buf 0 n in
  charge_copy conn.owner got;
  if conn.held && got > 0 then begin
    conn.held <- false;
    schedule_move conn
  end;
  Bytes.sub_string buf 0 got

let set_on_connect conn f = conn.on_connect <- f
let set_on_readable conn f = conn.on_readable <- f
let close conn = Tcp.close conn.tcp
let bytes_copied t = t.bytes_copied
