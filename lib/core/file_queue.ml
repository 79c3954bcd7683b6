module Block = Dk_device.Block
module Framing = Dk_net.Framing

let u32_to_string v =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (v land 0xff));
  Bytes.unsafe_to_string b

let seal_record payload =
  let crc = Int32.to_int (Dk_util.Crc32.digest_string payload) land 0xffffffff in
  u32_to_string (String.length payload) ^ payload ^ u32_to_string (crc land 0xffffffff)

(* Fetched log bytes not yet parsed: [data.[lo, hi)] holds the log
   from offset [at]. Parsing advances [lo] and [at]; an append that
   does not fit slides the unparsed tail (less than one record plus
   one fetch) to the front, and grows the store only when the tail
   itself needs it. So reading a log back costs time linear in its
   length. *)
type cursor = {
  mutable data : bytes;
  mutable lo : int;
  mutable hi : int;
  mutable at : int;
}

let cursor () = { data = Bytes.create 4096; lo = 0; hi = 0; at = 0 }
let avail c = c.hi - c.lo

let append c s off len =
  if c.hi + len > Bytes.length c.data then begin
    let live = avail c in
    let data =
      if live + len <= Bytes.length c.data then c.data
      else Bytes.create (Int.max (live + len) (2 * Bytes.length c.data))
    in
    Bytes.blit c.data c.lo data 0 live;
    c.data <- data;
    c.lo <- 0;
    c.hi <- live
  end;
  Bytes.blit_string s off c.data c.hi len;
  c.hi <- c.hi + len

let skip c n =
  c.lo <- c.lo + n;
  c.at <- c.at + n

(* The big-endian u32 [i] bytes past the cursor. *)
let u32 c i =
  Int32.to_int (Bytes.get_int32_be c.data (c.lo + i)) land 0xffffffff

(* Parse one record at the cursor; [None] if incomplete,
   [Some (Error ())] if corrupt. [Ok (payload, used)] does not consume
   it. *)
let parse_record c =
  let avail = avail c in
  if avail < 4 then None
  else
    let len = u32 c 0 in
    if len = 0 || len > 1 lsl 26 then Some (Error ())
    else if avail < 4 + len + 4 then None
    else
      let payload = Bytes.sub_string c.data (c.lo + 4) len in
      let crc = u32 c (4 + len) in
      let expect =
        Int32.to_int (Dk_util.Crc32.digest_string payload) land 0xffffffff
      in
      if crc <> expect then Some (Error ())
      else Some (Ok (payload, 4 + len + 4))

(* What the log holds at the cursor, in a log of [bs]-byte blocks. An
   append after recovery restarts at a block boundary and leaves zero
   bytes up to it. A record can also start 1-3 bytes short of a
   boundary, and its length prefix then begins with zero bytes, so
   zeros up to the boundary are padding only when no valid record
   (length and CRC) parses where they start. A zero length at a
   boundary is never padding. *)
type item =
  | Record of string * int (* payload, bytes used *)
  | Padding of int (* bytes up to the boundary *)
  | Bad
  | Incomplete

let rec zeros c i n =
  i >= n || (Bytes.get c.data (c.lo + i) = '\000' && zeros c (i + 1) n)

let next_item c ~bs =
  match parse_record c with
  | Some (Ok (payload, used)) -> Record (payload, used)
  | None -> Incomplete
  | Some (Error ()) ->
      let gap = bs - (c.at mod bs) in
      if gap = bs || not (zeros c 0 (Int.min gap (avail c))) then Bad
      else if gap <= avail c then Padding gap
      else Incomplete

type state = {
  tokens : Token.t;
  engine : Dk_sim.Engine.t;
  disp : Block_dispatch.t;
  base_lba : int;
  capacity_bytes : int;
  bs : int;
  mbox : Mailbox.t;
  (* writer *)
  mutable log_len : int;     (* bytes appended (incl. in-flight) *)
  mutable durable_len : int; (* bytes whose writes completed *)
  mutable shadow : Bytes.t;  (* full log image for assembling partial blocks *)
  mutable shadow_len : int;
  pending_appends : (string * Types.qtoken) Queue.t;
  mutable append_active : bool;
  (* reader *)
  mutable fed : int; (* bytes handed to the parser *)
  raw : cursor;
  mutable fetching : bool;
  mutable corrupt : bool;
}

let ensure_shadow st n =
  if Bytes.length st.shadow < n then begin
    let grown = Bytes.make (max n (max 4096 (2 * Bytes.length st.shadow))) '\000' in
    Bytes.blit st.shadow 0 grown 0 st.shadow_len;
    st.shadow <- grown
  end

(* ---- reader ---- *)

let rec parse_loop st =
  if not st.corrupt then
    match next_item st.raw ~bs:st.bs with
    | Incomplete -> ()
    | Padding n ->
        skip st.raw n;
        parse_loop st
    | Bad ->
        (* CRC/framing mismatch: a torn or corrupted record. Surface it
           as an I/O error, not a polite close. *)
        st.corrupt <- true;
        Mailbox.fail st.mbox `Io_error
    | Record (payload, used) ->
        skip st.raw used;
        let decoder = Framing.create () in
        Framing.feed decoder payload;
        (match Framing.next_sga decoder with
        | Some sga -> Mailbox.deliver st.mbox (Types.Popped sga)
        | None ->
            st.corrupt <- true;
            Mailbox.fail st.mbox `Io_error);
        parse_loop st

and try_fetch st =
  if (not st.fetching) && (not st.corrupt) && st.fed < st.durable_len then begin
    st.fetching <- true;
    let idx = st.fed / st.bs in
    (* The device returns the block as of submission; only feed bytes
       durable *now* — later appends land in the snapshot as zeros and
       must not reach the parser. *)
    let bound = st.durable_len in
    let on_complete (c : Block.completion) =
      (match c.Block.data with
      | Some data when c.Block.status = `Ok ->
          let lo = st.fed mod st.bs in
          let hi = min st.bs (bound - (idx * st.bs)) in
          if hi > lo then begin
            append st.raw data lo (hi - lo);
            st.fed <- st.fed + (hi - lo)
          end
      | Some _ | None ->
          (* The dispatcher already retried with backoff: this block is
             unreadable. Fail waiters instead of re-fetching forever. *)
          st.corrupt <- true;
          Mailbox.fail st.mbox `Io_error);
      st.fetching <- false;
      parse_loop st;
      (* Keep streaming while a pop is outstanding. *)
      if Mailbox.waiting st.mbox > 0 then try_fetch st
    in
    if not (Block_dispatch.read st.disp ~lba:(st.base_lba + idx) on_complete)
    then st.fetching <- false
  end

(* ---- writer ---- *)

let rec start_append st =
  if not st.append_active then
    match Queue.take_opt st.pending_appends with
    | None -> ()
    | Some (record, tok) ->
        st.append_active <- true;
        let off = st.log_len in
        let len = String.length record in
        if off + len > st.capacity_bytes then begin
          Token.complete st.tokens tok (Types.Failed `No_memory);
          st.append_active <- false;
          start_append st
        end
        else begin
          ensure_shadow st (off + len);
          Bytes.blit_string record 0 st.shadow off len;
          st.shadow_len <- max st.shadow_len (off + len);
          st.log_len <- off + len;
          let first = off / st.bs and last = (off + len - 1) / st.bs in
          let remaining = ref (last - first + 1) in
          let failed = ref false in
          let errored = ref false in
          for idx = first to last do
            if not !failed then begin
              let start = idx * st.bs in
              let chunk_len = min st.bs (st.log_len - start) in
              let chunk = Bytes.sub_string st.shadow start chunk_len in
              let on_written (c : Block.completion) =
                decr remaining;
                if c.Block.status <> `Ok then errored := true;
                if !remaining = 0 then
                  if !errored then begin
                    (* The device gave up after retries: the tail never
                       became durable. Roll the log back and surface the
                       error — silently "succeeding" would hand a later
                       reader a hole. *)
                    st.log_len <- off;
                    Token.complete st.tokens tok (Types.Failed `Io_error);
                    st.append_active <- false;
                    start_append st
                  end
                  else begin
                    st.durable_len <- st.log_len;
                    Token.complete st.tokens tok Types.Pushed;
                    st.append_active <- false;
                    (* New durable bytes may satisfy waiting pops. *)
                    if Mailbox.waiting st.mbox > 0 then try_fetch st;
                    start_append st
                  end
              in
              if
                not
                  (Block_dispatch.write st.disp ~lba:(st.base_lba + idx) chunk
                     on_written)
              then failed := true
            end
          done;
          if !failed then begin
            Token.complete st.tokens tok (Types.Failed `Would_block);
            st.append_active <- false;
            start_append st
          end
        end

let create ~tokens ~engine ~disp ~base_lba ~capacity_blocks ?(existing_len = 0)
    () =
  let bs = Block.block_size (Block_dispatch.block disp) in
  let st =
    {
      tokens;
      engine;
      disp;
      base_lba;
      capacity_bytes = capacity_blocks * bs;
      bs;
      mbox = Mailbox.create tokens;
      log_len = existing_len;
      durable_len = existing_len;
      shadow = Bytes.create 0;
      shadow_len = 0;
      pending_appends = Queue.create ();
      append_active = false;
      fed = 0;
      raw = cursor ();
      fetching = false;
      corrupt = false;
    }
  in
  (* Appends after recovery need the existing bytes in the shadow to
     assemble partial tail blocks; fetch them lazily on first append
     would complicate the path, so reads below re-feed them. For the
     shadow, re-reading happens through the reader; appends to a
     recovered log start at a block boundary to stay safe. *)
  if existing_len > 0 then begin
    let aligned = ((existing_len + bs - 1) / bs) * bs in
    st.log_len <- aligned;
    st.durable_len <- existing_len;
    ensure_shadow st aligned;
    st.shadow_len <- aligned
  end;
  {
    Qimpl.kind = "file";
    push =
      (fun sga tok ->
        if Framing.fits sga then begin
          let record = seal_record (Framing.encode_sga sga) in
          Queue.add (record, tok) st.pending_appends;
          start_append st
        end
        else Token.complete st.tokens tok (Types.Failed `Not_supported));
    pop =
      (fun tok ->
        Mailbox.pop st.mbox tok;
        if Mailbox.waiting st.mbox > 0 then try_fetch st);
    close = (fun () -> Mailbox.close st.mbox);
  }

let recover ~engine ~disp ~base_lba ~capacity_blocks k =
  ignore engine;
  let bs = Block.block_size (Block_dispatch.block disp) in
  let raw = cursor () in
  let valid = ref 0 in
  (* As in [parse_loop], padding an append after an earlier recovery
     left is skipped. A zero length at a block boundary is unwritten
     space, and a record of length 0 is corrupt, so parsing stops
     there. Whole blocks are appended, so the boundary is always
     fetched. *)
  let rec parse () =
    match next_item raw ~bs with
    | Record (_, used) ->
        skip raw used;
        valid := raw.at;
        parse ()
    | Padding n ->
        skip raw n;
        parse ()
    | Bad -> `Stop
    | Incomplete -> `More
  in
  let rec scan idx =
    if idx >= capacity_blocks then k !valid
    else begin
      let on_read (c : Block.completion) =
        match c.Block.data with
        | Some s when c.Block.status = `Ok -> (
            append raw s 0 (String.length s);
            match parse () with
            | `Stop -> k !valid
            | `More ->
                (* Heuristic: an all-zero prefix after the valid tail
                   means we've reached unwritten space. *)
                if avail raw >= 4 && u32 raw 0 = 0 then k !valid
                else scan (idx + 1))
        | Some _ | None -> k !valid
      in
      if not (Block_dispatch.read disp ~lba:(base_lba + idx) on_read) then
        k !valid
    end
  in
  scan 0
