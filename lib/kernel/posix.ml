module Stack = Dk_net.Stack
module Tcp = Dk_net.Tcp

type fd = int

type error =
  [ `Bad_fd | `Again | `In_use | `Not_supported | `Connection_closed ]

type stats = { syscalls : int; bytes_copied : int }

type sock_state = {
  mutable conn : Tcp.conn option;
  backlog : Tcp.conn Queue.t;
  mutable listening : bool;
  mutable is_connected : bool;
  mutable peer_closed : bool;
}

type kind =
  | Sock of sock_state
  | Pipe_read of Kpipe.t
  | Pipe_write of Kpipe.t
  | Epoll of [ `In | `Out ] list Dk_util.Itbl.t

type event = [ `In | `Out ]

type t = {
  engine : Dk_sim.Engine.t;
  cost : Dk_sim.Cost.t;
  stack : Stack.t;
  fds : kind Dk_util.Itbl.t;
  mutable next_fd : int;
  mutable syscalls : int;
  mutable bytes_copied : int;
  (* blocked epoll_wait callers: (epfd, max, continuation) *)
  mutable blocked : (fd * int * ((fd * event) list -> unit)) list;
}

let create ~engine ~cost ~stack () =
  {
    engine;
    cost;
    stack;
    fds = Dk_util.Itbl.create 32;
    next_fd = 3;
    syscalls = 0;
    bytes_copied = 0;
    blocked = [];
  }

let charge_syscall t =
  t.syscalls <- t.syscalls + 1;
  Dk_sim.Engine.consume t.engine t.cost.Dk_sim.Cost.syscall

let charge_copy t n =
  t.bytes_copied <- t.bytes_copied + n;
  Dk_sim.Engine.consume t.engine (Dk_sim.Cost.copy_ns t.cost n)

let charge_demux t =
  Dk_sim.Engine.consume t.engine t.cost.Dk_sim.Cost.kernel_sock_demux

let fresh_fd t kind =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  Dk_util.Itbl.replace t.fds fd kind;
  fd

let find t fd = Dk_util.Itbl.find_opt t.fds fd

(* ---- readiness ---- *)

let sock_readable s =
  (s.listening && not (Queue.is_empty s.backlog))
  || s.peer_closed
  ||
  match s.conn with Some c -> Tcp.recv_ready c > 0 | None -> false

let sock_writable s =
  match s.conn with
  | Some c -> s.is_connected && Tcp.send_space c > 0 && not s.peer_closed
  | None -> false

let readable t fd =
  match find t fd with
  | Some (Sock s) -> sock_readable s
  | Some (Pipe_read p) -> Kpipe.readable p > 0 || Kpipe.eof p
  | Some (Pipe_write _ | Epoll _) | None -> false

let writable t fd =
  match find t fd with
  | Some (Sock s) -> sock_writable s
  | Some (Pipe_write p) -> Kpipe.writable p > 0
  | Some (Pipe_read _ | Epoll _) | None -> false

let collect_ready t epfd max =
  match find t epfd with
  | Some (Epoll interests) ->
      let ready = ref [] in
      let count = ref 0 in
      (* Sorted by fd: [max] truncates, so hash-order iteration would
         make *which* fds get reported depend on the hash seed. *)
      Dk_util.Itbl.fold_sorted
        (fun fd events () ->
          List.iter
            (fun ev ->
              if !count < max then
                let is_ready =
                  match ev with `In -> readable t fd | `Out -> writable t fd
                in
                if is_ready then begin
                  ready := (fd, ev) :: !ready;
                  incr count
                end)
            events)
        interests ();
      !ready
  | Some _ | None -> []

(* A socket event occurred: wake blocked epoll_wait callers whose sets
   are now ready. Each wakeup costs a context switch. *)
let poke t =
  let still_blocked, to_wake =
    List.partition
      (fun (epfd, max, _) -> collect_ready t epfd max = [])
      t.blocked
  in
  t.blocked <- still_blocked;
  List.iter
    (fun (epfd, max, k) ->
      ignore
        (Dk_sim.Engine.after t.engine t.cost.Dk_sim.Cost.context_switch
           (fun () -> k (collect_ready t epfd max))))
    to_wake

let wire_conn t s conn =
  s.conn <- Some conn;
  Tcp.set_on_readable conn (fun () -> poke t);
  Tcp.set_on_writable conn (fun () -> poke t);
  Tcp.set_on_connect conn (fun () ->
      s.is_connected <- true;
      poke t);
  (* Peer FIN is the read-side EOF, long before the connection fully
     closes. *)
  Tcp.set_on_peer_fin conn (fun () ->
      s.peer_closed <- true;
      poke t);
  Tcp.set_on_close conn (fun _ ->
      s.peer_closed <- true;
      poke t)

(* ---- sockets ---- *)

let socket t =
  charge_syscall t;
  fresh_fd t
    (Sock
       {
         conn = None;
         backlog = Queue.create ();
         listening = false;
         is_connected = false;
         peer_closed = false;
       })

let listen t fd ~port =
  charge_syscall t;
  match find t fd with
  | Some (Sock s) -> (
      match
        Stack.tcp_listen t.stack ~port ~on_accept:(fun conn ->
            Queue.add conn s.backlog;
            poke t)
      with
      | Ok () ->
          s.listening <- true;
          Ok ()
      | Error `In_use -> Error `In_use)
  | Some _ -> Error `Not_supported
  | None -> Error `Bad_fd

let accept t fd =
  charge_syscall t;
  charge_demux t;
  match find t fd with
  | Some (Sock s) when s.listening -> (
      match Queue.take_opt s.backlog with
      | None -> Error `Again
      | Some conn ->
          let state =
            {
              conn = None;
              backlog = Queue.create ();
              listening = false;
              is_connected = true;
              peer_closed = false;
            }
          in
          wire_conn t state conn;
          Ok (fresh_fd t (Sock state)))
  | Some (Sock _) -> Error `Not_supported
  | Some _ -> Error `Not_supported
  | None -> Error `Bad_fd

let connect t fd ~dst =
  charge_syscall t;
  match find t fd with
  | Some (Sock s) ->
      if s.conn <> None then Error `In_use
      else begin
        let conn = Stack.tcp_connect t.stack ~dst in
        wire_conn t s conn;
        Ok ()
      end
  | Some _ -> Error `Not_supported
  | None -> Error `Bad_fd

let connected t fd =
  match find t fd with
  | Some (Sock { is_connected; _ }) -> is_connected
  | Some _ | None -> false

let read t fd buf off len =
  charge_syscall t;
  match find t fd with
  | Some (Sock s) -> (
      charge_demux t;
      match s.conn with
      | None -> Error `Not_supported
      | Some conn ->
          let avail = Tcp.recv_ready conn in
          if avail = 0 then
            if s.peer_closed then Ok 0 (* EOF *) else Error `Again
          else begin
            let n = Tcp.recv_into conn buf off (min len avail) in
            charge_copy t n;
            Ok n
          end)
  | Some (Pipe_read p) ->
      let s = Kpipe.read p len in
      let n = String.length s in
      if n = 0 then if Kpipe.eof p then Ok 0 else Error `Again
      else begin
        Bytes.blit_string s 0 buf off n;
        charge_copy t n;
        Ok n
      end
  | Some (Pipe_write _ | Epoll _) -> Error `Not_supported
  | None -> Error `Bad_fd

let write t fd ?(off = 0) data =
  charge_syscall t;
  match find t fd with
  | Some (Sock s) -> (
      charge_demux t;
      match s.conn with
      | None -> Error `Not_supported
      | Some conn ->
          if s.peer_closed then Error `Connection_closed
          else begin
            (* user -> kernel copy happens before the stack sees it *)
            let n = Tcp.send conn ~off data in
            if n = 0 then Error `Again
            else begin
              charge_copy t n;
              Ok n
            end
          end)
  | Some (Pipe_write p) ->
      let n = Kpipe.write p ~off data in
      if n = 0 then Error `Again
      else begin
        charge_copy t n;
        Ok n
      end
  | Some (Pipe_read _ | Epoll _) -> Error `Not_supported
  | None -> Error `Bad_fd

let close t fd =
  charge_syscall t;
  (match find t fd with
  | Some (Sock s) -> (
      match s.conn with Some conn -> Tcp.close conn | None -> ())
  | Some (Pipe_write p) -> Kpipe.close_write p
  | Some (Pipe_read _ | Epoll _) | None -> ());
  Dk_util.Itbl.remove t.fds fd

let pipe t =
  charge_syscall t;
  let p = Kpipe.create () in
  let r = fresh_fd t (Pipe_read p) in
  let w = fresh_fd t (Pipe_write p) in
  (r, w)

(* ---- epoll ---- *)

let epoll_create t =
  charge_syscall t;
  fresh_fd t (Epoll (Dk_util.Itbl.create 16))

let epoll_add t epfd fd events =
  charge_syscall t;
  match find t epfd with
  | Some (Epoll interests) ->
      if Dk_util.Itbl.mem t.fds fd then begin
        Dk_util.Itbl.replace interests fd (events :> [ `In | `Out ] list);
        Ok ()
      end
      else Error `Bad_fd
  | Some _ -> Error `Not_supported
  | None -> Error `Bad_fd

let epoll_del t epfd fd =
  charge_syscall t;
  match find t epfd with
  | Some (Epoll interests) -> Dk_util.Itbl.remove interests fd
  | Some _ | None -> ()

let epoll_wait t epfd ~max =
  charge_syscall t;
  collect_ready t epfd max

let epoll_wait_block t epfd ~max k =
  charge_syscall t;
  match collect_ready t epfd max with
  | [] -> t.blocked <- (epfd, max, k) :: t.blocked
  | ready -> k ready

let stats t = { syscalls = t.syscalls; bytes_copied = t.bytes_copied }
