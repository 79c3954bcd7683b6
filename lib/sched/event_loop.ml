module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Itbl = Dk_util.Itbl

(* [k] is the queue's pop continuation: built once when the queue is
   first watched and kept here, so re-arming a pop allocates only the
   token. *)
type watch_state = {
  qd : Types.qd;
  mutable active : bool;
  mutable close_cb : Types.error -> unit;
  mutable k : Types.op_result -> unit;
}

type t = {
  demi : Demi.t;
  watches : watch_state Itbl.t;
}

let create demi = { demi; watches = Itbl.create 16 }

let state t qd =
  match Itbl.find_opt t.watches qd with
  | Some st -> st
  | None ->
      let st = { qd; active = true; close_cb = ignore; k = ignore } in
      Itbl.replace t.watches qd st;
      st

let closed t st err =
  if st.active then begin
    st.active <- false;
    Itbl.remove t.watches st.qd;
    st.close_cb err
  end

(* Keep exactly one pop outstanding on a watched queue. A pop on a
   listening queue is an accept. *)
let pump t st =
  if st.active then
    match Demi.pop t.demi st.qd with
    | Ok tok -> Demi.watch t.demi tok st.k
    | Error e -> closed t st e

(* The handler runs before the re-pop, so a reply it sends takes its
   token before the next pop does. *)
let watch t qd handle =
  let st = state t qd in
  st.k <-
    (fun result ->
      if st.active then
        match result with
        | Types.Popped _ | Types.Accepted _ ->
            handle result;
            pump t st
        | Types.Failed e -> closed t st e
        | Types.Pushed -> pump t st);
  pump t st

let on_accept t qd cb =
  watch t qd (function
    | Types.Accepted conn_qd -> cb conn_qd
    | Types.Popped _ | Types.Pushed | Types.Failed _ -> ())

let on_message t qd cb =
  watch t qd (function
    | Types.Popped sga -> cb sga
    | Types.Accepted _ | Types.Pushed | Types.Failed _ -> ())

let on_close t qd cb = (state t qd).close_cb <- cb

let send t qd sga =
  match Demi.push t.demi qd sga with
  | Ok tok -> Demi.watch t.demi tok (fun _ -> ())
  | Error e -> (
      match Itbl.find_opt t.watches qd with
      | Some st -> closed t st e
      | None -> ())

let unwatch t qd =
  match Itbl.find_opt t.watches qd with
  | Some st ->
      st.active <- false;
      Itbl.remove t.watches qd
  | None -> ()

let run t ~until = Dk_sim.Engine.run_until (Demi.engine t.demi) until

let watched t = Itbl.length t.watches
