module Block = Dk_device.Block
module Flight = Dk_obs.Flight

(* Retry accounting: transient device errors absorbed (or not) by the
   dispatcher's bounded exponential backoff. *)
let m_retries = Dk_obs.Metrics.counter "core.block.retries"
let m_recovered = Dk_obs.Metrics.counter "core.block.recovered"
let m_gave_up = Dk_obs.Metrics.counter "core.block.gave_up"

(* An errored operation is resubmitted up to [max_retries] times, the
   n-th retry after [retry_backoff_ns * 2^n]. *)
let max_retries = 4
let retry_backoff_ns = 10_000L

type t = {
  block : Block.t;
  engine : Dk_sim.Engine.t;
  handlers : (Block.completion -> unit) Dk_util.Itbl.t;
  mutable next_wr : int;
}

let create block =
  let t =
    {
      block;
      engine = Block.engine block;
      handlers = Dk_util.Itbl.create 32;
      next_wr = 1;
    }
  in
  Block.set_cq_notify block (fun () ->
      let rec loop () =
        match Block.poll_cq block with
        | None -> ()
        | Some c ->
            (match Dk_util.Itbl.find_opt t.handlers c.Block.wr_id with
            | Some k ->
                Dk_util.Itbl.remove t.handlers c.Block.wr_id;
                k c
            | None -> ());
            loop ()
      in
      loop ());
  t

let block t = t.block

let fresh t =
  let id = t.next_wr in
  t.next_wr <- t.next_wr + 1;
  id

let backoff_ns attempt =
  Int64.mul retry_backoff_ns (Int64.of_int (1 lsl min attempt 16))

(* Submit with retry: an [`Io_error] completion (or an SQ-full retry
   slot) is resubmitted after an exponentially growing backoff, up to
   [max_retries] times; only then does the error reach the caller's
   continuation. The *first* submission keeps the historical contract —
   [false] on a full SQ, continuation dropped — so callers' own
   backpressure handling still works. *)
let rec attempt_op t ~resubmit ~attempt k =
  let wr = fresh t in
  let retry_later () =
    Dk_obs.Metrics.incr m_retries;
    ignore
      (Dk_sim.Engine.after t.engine (backoff_ns attempt) (fun () ->
           ignore (attempt_op t ~resubmit ~attempt:(attempt + 1) k)))
  in
  let handler c =
    match c.Block.status with
    | `Io_error when attempt < max_retries -> retry_later ()
    | `Io_error ->
        Dk_obs.Metrics.incr m_gave_up;
        if
          Flight.start Flight.default ~now:(Dk_sim.Engine.now t.engine)
            Flight.Drop
        then begin
          Flight.add_string Flight.default "block wr_id ";
          Flight.add_int Flight.default c.Block.wr_id;
          Flight.add_string Flight.default " failed after ";
          Flight.add_int Flight.default attempt;
          Flight.add_string Flight.default " retries";
          Flight.commit Flight.default
        end;
        k c
    | `Ok | `Bad_lba ->
        if attempt > 0 then Dk_obs.Metrics.incr m_recovered;
        k c
  in
  Dk_util.Itbl.replace t.handlers wr handler;
  let ok = resubmit wr in
  if not ok then begin
    Dk_util.Itbl.remove t.handlers wr;
    if attempt = 0 then false
    else begin
      (* A retry must not be dropped on a momentarily full SQ. *)
      if attempt < max_retries then retry_later ()
      else begin
        Dk_obs.Metrics.incr m_gave_up;
        k { Block.wr_id = wr; status = `Io_error; data = None }
      end;
      true
    end
  end
  else true

let read t ~lba k =
  attempt_op t
    ~resubmit:(fun wr -> Block.submit_read t.block ~wr_id:wr ~lba)
    ~attempt:0 k

let write t ~lba data k =
  attempt_op t
    ~resubmit:(fun wr -> Block.submit_write t.block ~wr_id:wr ~lba data)
    ~attempt:0 k
