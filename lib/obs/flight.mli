(** Flight recorder: a fixed-capacity ring of the most recent datapath
    events, for post-mortem introspection of a path the kernel can no
    longer see.

    Entries are records packed into a byte ring, their sizes kept in a
    FIFO beside it; when the ring fills, the oldest entries are
    evicted, so memory use is bounded by [capacity] bytes regardless
    of event rate. Eviction
    counts each entry at its rendered size (11 bytes plus the label),
    whatever its encoding in the ring. Dump it on demand ({!pp}) or
    wire it to sanitizer violations:

    {[ Dk_check.set_sink (fun _ _ -> Format.eprintf "%a" Flight.pp Flight.default) ]}

    Recording never touches the simulation engine: timestamps are
    passed in by the caller ([Engine.now] reads, never consumes), so
    the recorder obeys the same zero-virtual-time invariant as
    {!Metrics}. *)

type kind =
  | Enqueue      (** element entered a device/queue ring *)
  | Dequeue      (** element left a device/queue ring *)
  | Push         (** application push on a queue descriptor *)
  | Pop          (** application pop on a queue descriptor *)
  | Completion   (** an operation's token completed *)
  | Drop         (** element lost: full ring, lossy fabric, filter *)
  | Retransmit   (** TCP resent a segment (RTO or fast retransmit) *)
  | Wakeup       (** a waiter/fiber/worker was woken *)
  | Mark         (** free-form annotation *)

val kind_name : kind -> string

type entry = { at : int64; kind : kind; what : string }

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is in bytes of rendered entries (default 64 KiB).
    @raise Invalid_argument if too small to hold a single entry, or
    not below 2 GiB. *)

val default : t
(** Process-wide recorder the built-in instrumentation writes to. *)

val set_enabled : t -> bool -> unit

val record : t -> now:int64 -> kind -> string -> unit
(** Append an entry (evicting the oldest as needed). Labels longer
    than the ring allows are truncated. No-op when disabled. *)

(** {2 Building a label in place}

    Instrumentation renders its label piece by piece into a buffer the
    recorder allocated in {!create}, so recording an event allocates
    nothing:

    {[
      if Flight.start fl ~now Flight.Drop then begin
        Flight.add_string fl "block SQ full (";
        Flight.add_int fl inflight;
        Flight.add_string fl " in flight)";
        Flight.commit fl
      end
    ]}

    The appenders render exactly what [Printf] renders for the
    conversion each names. A label longer than the ring allows is
    truncated, as in {!record}. *)

val start : t -> now:int64 -> kind -> bool
(** Open an entry with an empty label; [false] when the recorder is
    disabled. The appenders and {!commit} act on the entry the last
    [start] that returned [true] opened. *)

val add_string : t -> string -> unit
(** Append to the open entry's label, like [%s]. *)

val add_int : t -> int -> unit
(** Like [%d]. *)

val add_hex : t -> int -> unit
(** Like [%x]: lowercase, and a negative value prints as its unsigned
    63 bits. *)

val add_int64 : t -> int64 -> unit
(** Like [%Ld]. *)

val commit : t -> unit
(** Write the open entry into the ring (evicting the oldest as
    needed). *)

(** {2 Typed per-operation entries}

    The datapath records one entry per queue operation, completion and
    received frame. Each of these three shapes has one call, which
    stores the label's numbers and name in binary and renders the
    label only when it is read ({!entries}, {!pp}). Every observable
    — labels, {!length}, {!recorded}, {!evicted} — is what building
    the same label with {!start}, the appenders and {!commit} gives.
    No-ops when disabled. *)

val record_qd_op :
  t -> now:int64 -> kind -> qd:int -> string -> tok:int -> unit
(** [record_qd_op t ~now kind ~qd name ~tok] records [kind] labelled
    like [Printf.sprintf "qd %d (%s) tok %d" qd name tok]. *)

val record_qtoken : t -> now:int64 -> int -> unit
(** A [Completion] labelled like [Printf.sprintf "qtoken %d"]. *)

val record_nic_rx : t -> now:int64 -> mac:int -> len:int -> ring:int -> unit
(** An [Enqueue] labelled like
    [Printf.sprintf "nic %x rx %dB (ring %d)" mac len ring]. *)

val entries : t -> entry list
(** Oldest first. Non-destructive: it may run, as {!pp} may, while an
    entry is open between {!start} and {!commit}. *)

val length : t -> int
(** Entries currently held. *)

val recorded : t -> int
(** Total entries ever recorded (including evicted ones). *)

val evicted : t -> int
(** Entries evicted to make room since creation or [clear]. *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
(** One line per entry: [%12Ld  %-10s %s] (timestamp, kind, label). *)
