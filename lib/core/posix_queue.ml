module Posix = Dk_kernel.Posix
module Framing = Dk_net.Framing

(* A push not yet fully written: its framed bytes, a cursor past the
   bytes [write] has taken, and its token. *)
type staged = { data : string; mutable cursor : int; tok : Types.qtoken }

type conn_state = {
  tokens : Token.t;
  posix : Posix.t;
  fd : Posix.fd;
  epfd : Posix.fd;
  mbox : Mailbox.t;
  decoder : Framing.decoder;
  txq : staged Queue.t;
  mutable closed : bool;
}

let read_chunk = 16384

let update_interest st =
  let interest =
    if Queue.is_empty st.txq then [ `In ] else [ `In; `Out ]
  in
  ignore (Posix.epoll_add st.posix st.epfd st.fd interest)

let fail_tx st err =
  Queue.iter
    (fun s -> Token.complete st.tokens s.tok (Types.Failed err))
    st.txq;
  Queue.clear st.txq

let close_conn st err =
  if not st.closed then begin
    st.closed <- true;
    fail_tx st err;
    Mailbox.fail st.mbox err;
    Posix.epoll_del st.posix st.epfd st.fd
  end

let pump_tx st =
  let progress = ref true in
  while !progress && not st.closed do
    progress := false;
    match Queue.peek_opt st.txq with
    | None -> ()
    | Some s -> (
        match Posix.write st.posix st.fd ~off:s.cursor s.data with
        | Ok n ->
            s.cursor <- s.cursor + n;
            if s.cursor = String.length s.data then begin
              ignore (Queue.pop st.txq);
              Token.complete st.tokens s.tok Types.Pushed;
              progress := true
            end
        | Error `Again -> ()
        | Error _ -> close_conn st `Queue_closed)
  done;
  update_interest st

let rec deliver st =
  match Framing.next_sga st.decoder with
  | Some sga ->
      Mailbox.deliver st.mbox (Types.Popped sga);
      deliver st
  | None -> ()

(* Each read goes straight into the decoder's backlog. *)
let rec pump_rx st =
  if not st.closed then
    match Framing.fill st.decoder read_chunk (Posix.read st.posix) st.fd with
    | Ok 0 -> close_conn st `Queue_closed (* EOF *)
    | Ok _ ->
        deliver st;
        if Framing.corrupt st.decoder then begin
          (* The peer's byte stream cannot be decoded: drop it. *)
          Dk_obs.Metrics.incr (Dk_obs.Metrics.counter "net.framing.rejected");
          close_conn st `Conn_aborted
        end
        else pump_rx st
    | Error `Again -> ()
    | Error _ -> close_conn st `Queue_closed

(* The kernel-style event pump: block in epoll, handle, re-block. *)
let rec block_loop st =
  if not st.closed then
    Posix.epoll_wait_block st.posix st.epfd ~max:4 (fun events ->
        List.iter
          (fun (_, ev) ->
            match ev with `In -> pump_rx st | `Out -> pump_tx st)
          events;
        block_loop st)

let of_fd ~tokens ~posix ~fd () =
  let epfd = Posix.epoll_create posix in
  let st =
    {
      tokens;
      posix;
      fd;
      epfd;
      mbox = Mailbox.create tokens;
      decoder = Framing.create ();
      txq = Queue.create ();
      closed = false;
    }
  in
  ignore (Posix.epoll_add posix epfd fd [ `In ]);
  block_loop st;
  {
    Qimpl.kind = "posix-tcp";
    push =
      (fun sga tok ->
        if st.closed then Token.complete tokens tok (Types.Failed `Queue_closed)
        else if Framing.fits sga then begin
          Queue.add { data = Framing.encode_sga sga; cursor = 0; tok } st.txq;
          pump_tx st
        end
        else Token.complete tokens tok (Types.Failed `Not_supported));
    pop = (fun tok -> Mailbox.pop st.mbox tok);
    close =
      (fun () ->
        close_conn st `Queue_closed;
        Posix.close st.posix st.fd);
  }

let listener ~tokens ~posix ~port ~register =
  let lsock = Posix.socket posix in
  match Posix.listen posix lsock ~port with
  | Error `In_use -> Error `In_use
  | Error _ -> Error `In_use
  | Ok () ->
      let epfd = Posix.epoll_create posix in
      ignore (Posix.epoll_add posix epfd lsock [ `In ]);
      let mbox = Mailbox.create tokens in
      let closed = ref false in
      let rec accept_loop () =
        if not !closed then
          Posix.epoll_wait_block posix epfd ~max:4 (fun _ ->
              let rec drain () =
                match Posix.accept posix lsock with
                | Ok fd ->
                    let impl = of_fd ~tokens ~posix ~fd () in
                    Mailbox.deliver mbox (Types.Accepted (register impl));
                    drain ()
                | Error `Again -> ()
                | Error _ -> ()
              in
              drain ();
              accept_loop ())
      in
      accept_loop ();
      Ok
        {
          Qimpl.kind = "posix-listen";
          push =
            (fun _ tok ->
              Token.complete tokens tok (Types.Failed `Not_supported));
          pop = (fun tok -> Mailbox.pop mbox tok);
          close =
            (fun () ->
              closed := true;
              Posix.close posix lsock;
              Mailbox.close mbox);
        }
