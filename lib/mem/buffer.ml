type cell = {
  mutable app_refs : int;
  mutable io_refs : int;
  mutable released : bool;
  mutable deferred : bool;
  release : unit -> unit;
}

type t = {
  store : bytes;
  off : int;
  len : int;
  region_id : int option;
  cell : cell option;
  sanitize : bool; (* report lifecycle violations through Dk_check *)
  mutable live : bool; (* this view not yet freed *)
}

let view store ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length store then
    invalid_arg "Buffer.view";
  {
    store;
    off;
    len;
    region_id = None;
    cell = None;
    sanitize = false;
    live = true;
  }
  [@@hot.alloc
    "a view over a store the caller hands over is one fresh descriptor; \
     no bytes are copied"]

let of_string s = view (Bytes.of_string s) ~off:0 ~len:(String.length s)
  [@@hot.alloc
    "wrapping a string copies it into a fresh unmanaged store: \
     control-path data and each received UDP datagram"]

let make_managed ?(sanitize = false) ~store ~off ~len ~region_id ~release () =
  if off < 0 || len < 0 || off + len > Bytes.length store then
    invalid_arg "Buffer.make_managed";
  let cell =
    { app_refs = 1; io_refs = 0; released = false; deferred = false; release }
  in
  {
    store;
    off;
    len;
    region_id = Some region_id;
    cell = Some cell;
    sanitize;
    live = true;
  }
  [@@hot.alloc
    "a managed allocation's refcount cell and descriptor, built once \
     per buddy allocation"]

let describe t =
  Printf.sprintf "allocation (region %s, off %d, len %d)"
    (match t.region_id with Some id -> string_of_int id | None -> "-")
    t.off t.len
  [@@hot.alloc
    "the identity label formats only when a sanitizer or misuse \
     diagnostic actually fires"]

(* Sanitizer guard on every data access: a freed view or a released
   allocation must not be read or written — with kernel-bypass the
   device may already own (or have recycled) the bytes. *)
let check_access t op =
  if t.sanitize then begin
    (match t.cell with
    | Some c when c.released ->
        Dk_check.report Dk_check.Use_after_free
          (Printf.sprintf "Buffer.%s on released %s" op (describe t))
    | Some _ | None -> ());
    if not t.live then
      Dk_check.report Dk_check.Use_after_free
        (Printf.sprintf "Buffer.%s on freed view of %s" op (describe t))
  end
  [@@hot.alloc
    "use-after-free diagnostics format only on a sanitizer hit"]

let store t = t.store
let off t = t.off
let length t = t.len
let region_id t = t.region_id

let retain t =
  match t.cell with
  | None -> ()
  | Some c ->
      if c.released then
        if t.sanitize then
          Dk_check.report Dk_check.Use_after_free
            (Printf.sprintf "Buffer.sub/dup on released %s" (describe t))
        else invalid_arg "Buffer: use after release"
      else c.app_refs <- c.app_refs + 1

let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Buffer.sub";
  retain t;
  { t with off = t.off + pos; len; live = true }
  [@@hot.alloc
    "a sliced view is a fresh descriptor over the same backing store; \
     no bytes are copied"]

let dup t =
  retain t;
  { t with live = true }
  [@@hot.alloc "a duplicated view is a fresh descriptor, not a byte copy"]

let check_bounds t pos len name =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg name

let get t i =
  check_access t "get";
  check_bounds t i 1 "Buffer.get";
  Bytes.get t.store (t.off + i)

let set t i c =
  check_access t "set";
  check_bounds t i 1 "Buffer.set";
  Bytes.set t.store (t.off + i) c

let blit_from_string src soff t doff len =
  check_access t "blit_from_string";
  check_bounds t doff len "Buffer.blit_from_string";
  Bytes.blit_string src soff t.store (t.off + doff) len

let blit_to_bytes t soff dst doff len =
  check_access t "blit_to_bytes";
  check_bounds t soff len "Buffer.blit_to_bytes";
  Bytes.blit t.store (t.off + soff) dst doff len

let blit src soff dst doff len =
  check_access src "blit(src)";
  check_access dst "blit(dst)";
  check_bounds src soff len "Buffer.blit(src)";
  check_bounds dst doff len "Buffer.blit(dst)";
  Bytes.blit src.store (src.off + soff) dst.store (dst.off + doff) len

let fill t c =
  check_access t "fill";
  Bytes.fill t.store t.off t.len c

let to_string t =
  check_access t "to_string";
  Bytes.sub_string t.store t.off t.len
  [@@hot.alloc "serialization copies the view's bytes out of the store"]

let maybe_release c =
  if (not c.released) && c.app_refs = 0 && c.io_refs = 0 then begin
    c.released <- true;
    c.release ()
  end

let free t =
  if not t.live then begin
    if t.sanitize then
      (* raises unless captured; either way the duplicate free must not
         touch the refcount again *)
      Dk_check.report Dk_check.Double_free
        (Printf.sprintf "Buffer.free: second free of the same view of %s"
           (describe t))
    else invalid_arg "Buffer.free: double free of a view"
  end
  else begin
    t.live <- false;
    match t.cell with
    | None -> ()
    | Some c ->
        c.app_refs <- c.app_refs - 1;
        if c.app_refs = 0 && c.io_refs > 0 then c.deferred <- true;
        maybe_release c
  end
  [@@hot.alloc "the double-free diagnostic formats only on a misuse"]

let io_hold t =
  match t.cell with
  | None -> ()
  | Some c ->
      if c.released then
        if t.sanitize then
          Dk_check.report Dk_check.Use_after_free
            (Printf.sprintf "Buffer.io_hold on released %s (DMA into freed \
                             memory)" (describe t))
        else invalid_arg "Buffer.io_hold: buffer already released"
      else c.io_refs <- c.io_refs + 1
  [@@hot.alloc
    "the use-after-free diagnostic formats only on a sanitizer hit"]

let io_release t =
  match t.cell with
  | None -> ()
  | Some c ->
      if c.io_refs <= 0 then invalid_arg "Buffer.io_release: no I/O hold";
      c.io_refs <- c.io_refs - 1;
      maybe_release c

let in_flight t = match t.cell with None -> false | Some c -> c.io_refs > 0
let was_deferred t =
  match t.cell with None -> false | Some c -> c.deferred
