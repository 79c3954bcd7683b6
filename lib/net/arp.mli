(** Minimal ARP: IPv4-over-ethernet request/reply. *)

type op = Request | Reply

type t = {
  op : op;
  sender_mac : Addr.mac;
  sender_ip : Addr.ip;
  target_mac : Addr.mac;
  target_ip : Addr.ip;
}

val size : int
(** Bytes of an ARP packet. *)

val write : bytes -> off:int -> t -> unit
(** Fill the {!size} bytes at [off]. *)

val decode : bytes -> off:int -> len:int -> (t, string) result
(** The packet in the [len] bytes at [off]. *)

(** ARP cache with pending-query tracking. *)
module Table : sig
  type table

  val create : unit -> table
  val lookup : table -> Addr.ip -> Addr.mac option
  val insert : table -> Addr.ip -> Addr.mac -> unit

  val enqueue_pending : table -> Addr.ip -> (Addr.mac -> unit) -> bool
  (** Queue a continuation to run when the mapping arrives; returns
      [true] if this is the first waiter (i.e. a request should be
      sent). *)

  val resolve_pending : table -> Addr.ip -> Addr.mac -> int
  (** Insert the mapping and run all queued continuations, returning
      how many were waiting (the sends that just recovered from a
      stalled resolution). *)

  val drop_pending : table -> Addr.ip -> int
  (** Abandon a resolution attempt: discard queued continuations
      (returning how many) so a later query can start a fresh round.
      Dropped traffic is recovered by upper-layer retransmission. *)
end
