(** The Demikernel memory manager (§4.5).

    Allocates application I/O buffers from large pre-registered regions,
    so that applications never register memory with devices themselves:
    when the manager creates a region it fires [on_new_region], which
    the libOS uses to register the region with every attached device
    (paying the registration cost once per region, not once per buffer).
    Buffers carry free-protection (see {!Buffer}). *)

type t

type stats = {
  allocs : int;          (** successful allocations *)
  releases : int;        (** storage actually returned *)
  deferred_releases : int; (** releases delayed by in-flight I/O *)
  live_bytes : int;
  region_count : int;
  region_bytes : int;
}

type leak = { leak_region : int; leak_off : int; leak_len : int }

val create :
  ?initial_region_size:int ->
  ?max_total_bytes:int ->
  ?on_new_region:(Region.t -> unit) ->
  ?sanitize:bool ->
  unit ->
  t
(** Defaults: 1 MiB initial region, 256 MiB cap, no registration hook.
    [initial_region_size] must be a power of two.

    [~sanitize:true] (default: [DK_SANITIZE] in the environment, see
    {!Dk_check.enabled_from_env}) turns on sanitizer mode for every
    buffer this manager hands out: 8 canary guard bytes on each side of
    the {e requested} length, verified when the storage is returned;
    poison-on-free (blocks refilled with [0xDD]); use-after-free and
    double-free detection on every access (see {!Buffer.make_managed});
    and live-allocation tracking for {!check_leaks}. Off by default —
    the fast path carries no checks beyond bounds. Note that sanitized
    allocations consume [16] extra bytes each, so [stats.live_bytes]
    and region growth differ from an unsanitized run. *)

val sanitized : t -> bool

val alloc : t -> int -> Buffer.t option
(** [None] only when the total-bytes cap prevents growing. *)

val alloc_exn : t -> int -> Buffer.t
(** @raise Out_of_memory when {!alloc} would return [None]. *)

val alloc_string : t -> string -> Buffer.t option
(** Allocate and fill with the string's bytes (the buffer's length is
    exactly the string's length... it is a view of a possibly larger
    block). *)

val sga_of_string : t -> string -> Sga.t option
(** Single-segment managed sga holding the string. *)

val regions : t -> Region.t list
val stats : t -> stats

val check_leaks : t -> leak list
(** Shutdown leak sweep (sanitizer mode): every allocation still live —
    not yet freed, or its release still deferred behind an I/O hold —
    is reported through {!Dk_check.report} ([Leak]) and returned,
    sorted by region/offset. Always [[]] for an unsanitized manager.
    Call it once all I/O has drained; run under {!Dk_check.capture} to
    collect the list without the first leak raising. *)
