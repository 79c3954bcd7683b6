type error = [ `No_such_file | `Exists | `Device_busy ]

type file = {
  mutable size : int;
  (* file block index -> device lba *)
  blocks : int Dk_util.Itbl.t;
  (* authoritative contents; the device holds the same bytes and is
     consulted on reads for latency realism *)
  mutable shadow : bytes;
  mutable pending_writes : int;
  mutable fsync_waiters : (unit -> unit) list;
}

(* What to do when a device completion for [wr_id] arrives. *)
type pending =
  | Write_part of { file : file; mutable remaining : int ref; finish : unit -> unit }
  | Read_part of {
      dst : bytes;
      dst_off : int;
      src_off : int;
      len : int;
      mutable remaining : int ref;
      finish : unit -> unit;
    }

type t = {
  engine : Dk_sim.Engine.t;
  cost : Dk_sim.Cost.t;
  block : Dk_device.Block.t;
  files : (string, file) Hashtbl.t;
  pending : pending Dk_util.Itbl.t;
  mutable next_wr : int;
  mutable next_lba : int;
  mutable syscalls : int;
}

let create ~engine ~cost ~block () =
  let t =
    {
      engine;
      cost;
      block;
      files = Hashtbl.create 16;
      pending = Dk_util.Itbl.create 64;
      next_wr = 1;
      next_lba = 0;
      syscalls = 0;
    }
  in
  Dk_device.Block.set_cq_notify block (fun () ->
      let rec drain () =
        match Dk_device.Block.poll_cq block with
        | None -> ()
        | Some c ->
            (match Dk_util.Itbl.find_opt t.pending c.Dk_device.Block.wr_id with
            | None -> ()
            | Some p ->
                Dk_util.Itbl.remove t.pending c.Dk_device.Block.wr_id;
                (match p with
                | Write_part { file; remaining; finish } ->
                    decr remaining;
                    if !remaining = 0 then begin
                      file.pending_writes <- file.pending_writes - 1;
                      let waiters = file.fsync_waiters in
                      if file.pending_writes = 0 then begin
                        file.fsync_waiters <- [];
                        List.iter (fun w -> w ()) (List.rev waiters)
                      end;
                      finish ()
                    end
                | Read_part { dst; dst_off; src_off; len; remaining; finish } ->
                    (match c.Dk_device.Block.data with
                    | Some data when c.Dk_device.Block.status = `Ok ->
                        Bytes.blit_string data src_off dst dst_off len
                    | Some _ | None -> ());
                    decr remaining;
                    if !remaining = 0 then finish ()));
            drain ()
      in
      drain ());
  t

let charge_syscall t =
  t.syscalls <- t.syscalls + 1;
  Dk_sim.Engine.consume t.engine t.cost.Dk_sim.Cost.syscall

let charge_vfs t = Dk_sim.Engine.consume t.engine t.cost.Dk_sim.Cost.vfs_overhead

let creat t path =
  charge_syscall t;
  charge_vfs t;
  if Hashtbl.mem t.files path then Error `Exists
  else begin
    Hashtbl.replace t.files path
      {
        size = 0;
        blocks = Dk_util.Itbl.create 8;
        shadow = Bytes.create 0;
        pending_writes = 0;
        fsync_waiters = [];
      };
    Ok ()
  end

let exists t path = Hashtbl.mem t.files path

let size t path =
  Option.map (fun f -> f.size) (Hashtbl.find_opt t.files path)

let unlink t path =
  charge_syscall t;
  charge_vfs t;
  if Hashtbl.mem t.files path then begin
    Hashtbl.remove t.files path;
    Ok ()
  end
  else Error `No_such_file

let fresh_wr t =
  let id = t.next_wr in
  t.next_wr <- t.next_wr + 1;
  id

let lba_for t file idx =
  match Dk_util.Itbl.find_opt file.blocks idx with
  | Some lba -> lba
  | None ->
      let lba = t.next_lba in
      t.next_lba <- t.next_lba + 1;
      Dk_util.Itbl.replace file.blocks idx lba;
      lba

let ensure_shadow file n =
  if Bytes.length file.shadow < n then begin
    let grown = Bytes.make (max n (2 * Bytes.length file.shadow)) '\000' in
    Bytes.blit file.shadow 0 grown 0 (Bytes.length file.shadow);
    file.shadow <- grown
  end

(* Wake the caller: completion delivery costs a context switch
   (interrupt-driven I/O), unlike a polled completion queue. *)
let complete t k v =
  Dk_sim.Engine.consume t.engine t.cost.Dk_sim.Cost.context_switch;
  k v

let write t ~path ~off data k =
  charge_syscall t;
  charge_vfs t;
  (* user -> kernel copy *)
  Dk_sim.Engine.consume t.engine
    (Dk_sim.Cost.copy_ns t.cost (String.length data));
  match Hashtbl.find_opt t.files path with
  | None -> complete t k (Error `No_such_file)
  | Some file ->
      let len = String.length data in
      if len = 0 then complete t k (Ok 0)
      else begin
        let bs = Dk_device.Block.block_size t.block in
        ensure_shadow file (off + len);
        Bytes.blit_string data 0 file.shadow off len;
        file.size <- max file.size (off + len);
        let first_block = off / bs and last_block = (off + len - 1) / bs in
        let nblocks = last_block - first_block + 1 in
        let remaining = ref nblocks in
        file.pending_writes <- file.pending_writes + 1;
        let finish () = complete t k (Ok len) in
        let failed = ref false in
        for idx = first_block to last_block do
          if not !failed then begin
            let lba = lba_for t file idx in
            let start = idx * bs in
            let chunk_len = min bs (max 0 (file.size - start)) in
            let chunk = Bytes.sub_string file.shadow start chunk_len in
            let wr = fresh_wr t in
            Dk_util.Itbl.replace t.pending wr
              (Write_part { file; remaining; finish });
            if not (Dk_device.Block.submit_write t.block ~wr_id:wr ~lba chunk)
            then begin
              Dk_util.Itbl.remove t.pending wr;
              failed := true
            end
          end
        done;
        if !failed then begin
          (* Roll back the accounting for unsubmitted parts and fail. *)
          file.pending_writes <- file.pending_writes - 1;
          complete t k (Error `Device_busy)
        end
      end

let read t ~path ~off ~len k =
  charge_syscall t;
  charge_vfs t;
  match Hashtbl.find_opt t.files path with
  | None -> complete t k (Error `No_such_file)
  | Some file ->
      let len = max 0 (min len (file.size - off)) in
      if len = 0 then complete t k (Ok "")
      else begin
        let bs = Dk_device.Block.block_size t.block in
        let dst = Bytes.create len in
        let first_block = off / bs and last_block = (off + len - 1) / bs in
        let nblocks = last_block - first_block + 1 in
        let remaining = ref nblocks in
        let finish () =
          (* kernel -> user copy on return *)
          Dk_sim.Engine.consume t.engine (Dk_sim.Cost.copy_ns t.cost len);
          complete t k (Ok (Bytes.unsafe_to_string dst))
        in
        let failed = ref false in
        for idx = first_block to last_block do
          if not !failed then begin
            let lba = lba_for t file idx in
            let block_start = idx * bs in
            let lo = max off block_start in
            let hi = min (off + len) (block_start + bs) in
            let wr = fresh_wr t in
            Dk_util.Itbl.replace t.pending wr
              (Read_part
                 {
                   dst;
                   dst_off = lo - off;
                   src_off = lo - block_start;
                   len = hi - lo;
                   remaining;
                   finish;
                 });
            if not (Dk_device.Block.submit_read t.block ~wr_id:wr ~lba) then begin
              Dk_util.Itbl.remove t.pending wr;
              failed := true
            end
          end
        done;
        if !failed then complete t k (Error `Device_busy)
      end

let fsync t ~path k =
  charge_syscall t;
  match Hashtbl.find_opt t.files path with
  | None -> complete t k (Error `No_such_file)
  | Some file ->
      if file.pending_writes = 0 then complete t k (Ok ())
      else
        file.fsync_waiters <-
          (fun () -> complete t k (Ok ())) :: file.fsync_waiters

let syscalls t = t.syscalls
