(** I/O buffer with free-protection (§4.5).

    A buffer is a view onto backing storage plus a lifecycle cell shared
    by all views of the same allocation. Devices take I/O holds while a
    buffer is under DMA; the application may [free] at any time, but the
    storage is only returned to its arena once the application reference
    count and the I/O hold count both reach zero — the paper's
    "free-protection for in-use memory buffers". *)

type t

val of_string : string -> t
(** An unmanaged buffer (no arena, no registration) over a copy of the
    string; freeing it is a no-op. Useful in tests and for control-path
    data. *)

val view : bytes -> off:int -> len:int -> t
(** [view store ~off ~len] is an unmanaged buffer over [store]'s bytes
    [off] to [off + len - 1], without a copy: the caller hands [store]
    over and writes it only through buffers. Several views may share one
    store; each is bounded by its own [off] and [len], so no access
    through one reaches another's bytes. Freeing it is a no-op.
    @raise Invalid_argument if the range is not inside [store]. *)

val make_managed :
  ?sanitize:bool ->
  store:bytes ->
  off:int ->
  len:int ->
  region_id:int ->
  release:(unit -> unit) ->
  unit ->
  t
(** Used by the memory manager: a managed buffer over [store] whose
    storage is returned by calling [release] when the last reference and
    the last I/O hold are gone. With [~sanitize:true] (default false)
    every access and lifecycle operation is checked and violations —
    use-after-free reads/writes, double frees, I/O holds on released
    storage — are reported through {!Dk_check} instead of silently
    corrupting (or, for double frees, raising the generic
    [Invalid_argument]). *)

val store : t -> bytes
val off : t -> int
val length : t -> int
val region_id : t -> int option

val sub : t -> int -> int -> t
(** [sub t pos len] is a view of the same allocation; it shares the
    lifecycle cell (takes an application reference). *)

val dup : t -> t
(** Another application reference to the same view. *)

val get : t -> int -> char
val set : t -> int -> char -> unit
val blit_from_string : string -> int -> t -> int -> int -> unit
val blit_to_bytes : t -> int -> bytes -> int -> int -> unit
val blit : t -> int -> t -> int -> int -> unit
val fill : t -> char -> unit
val to_string : t -> string

val free : t -> unit
(** Drop this application reference. Safe while I/O holds exist: the
    release is deferred (free-protection). Double frees of the same view
    raise [Invalid_argument]. *)

val io_hold : t -> unit
(** Taken by a device when DMA starts. *)

val io_release : t -> unit
(** Dropped on I/O completion; may trigger the deferred release. *)

val in_flight : t -> bool
(** True while any I/O hold exists on the allocation. *)

val was_deferred : t -> bool
(** True if some [free] on this allocation had to be deferred because
    I/O was in flight — observable evidence of free-protection. *)
