module Posix = Dk_kernel.Posix
module Framing = Dk_net.Framing

type conn_state = {
  tokens : Token.t;
  posix : Posix.t;
  fd : Posix.fd;
  epfd : Posix.fd;
  mbox : Mailbox.t;
  decoder : Framing.decoder;
  txq : (string ref * Types.qtoken) Queue.t;
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
    (fun (_, tok) -> Token.complete st.tokens tok (Types.Failed err))
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
    | Some (remaining, tok) -> (
        match Posix.write st.posix st.fd !remaining with
        | Ok n ->
            remaining := String.sub !remaining n (String.length !remaining - n);
            if String.length !remaining = 0 then begin
              ignore (Queue.pop st.txq);
              Token.complete st.tokens tok Types.Pushed;
              progress := true
            end
        | Error `Again -> ()
        | Error _ -> close_conn st `Queue_closed)
  done;
  update_interest st

let pump_rx st =
  let buf = Bytes.create read_chunk in
  let rec drain () =
    if not st.closed then
      match Posix.read st.posix st.fd buf 0 read_chunk with
      | Ok 0 -> close_conn st `Queue_closed (* EOF *)
      | Ok n ->
          Framing.feed st.decoder (Bytes.sub_string buf 0 n);
          let rec deliver () =
            match Framing.next st.decoder with
            | Some segments ->
                Mailbox.deliver st.mbox
                  (Types.Popped (Dk_mem.Sga.of_strings segments));
                deliver ()
            | None -> ()
          in
          deliver ();
          if Framing.corrupt st.decoder then begin
            (* The peer's byte stream cannot be decoded: drop it. *)
            Dk_obs.Metrics.incr (Dk_obs.Metrics.counter "net.framing.rejected");
            close_conn st `Conn_aborted
          end
          else drain ()
      | Error `Again -> ()
      | Error _ -> close_conn st `Queue_closed
  in
  drain ()

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
        else begin
          Queue.add (ref (Framing.encode_sga sga), tok) st.txq;
          pump_tx st
        end);
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
