(** dk-verify: AST-level typestate and dataflow checking for the
    queue/token/buffer protocol (the flow-aware companion to dk-lint's
    token-stream rules).

    Each source's parse tree ({!Tool_common.parse}) is checked by an
    intra-procedural abstract interpretation over let-bound values of
    the Demi API. Four rule families:

    - [qd-typestate]: the Figure-3 lifecycle over queue descriptors —
      [socket → bind → listen → accept] / [connect → push/pop → close],
      close-exactly-once, no I/O after close, no descriptor leaked
      without reaching [close] on some path.
    - [token-linear]: every [qtoken] minted by [push]/[pop]/
      [accept_async] must reach exactly one of [wait*]/[try_wait]/
      [watch]; no dropped tokens, no double redemption, no mixing
      [watch] with [wait] (§4.4 exactly-one-wakeup).
    - [sga-ownership]: an sga passed to [push] belongs to the device
      until the corresponding wait completes — reading, re-pushing or
      [sga_free]ing it in between races the DMA (§4.5 zero-copy).
    - [ignored-result]: no [(_, Types.error) result] of the Demi API
      discarded via [ignore]/[let _ =]; with the kernel out of the I/O
      path, the [Error] constructor is the only failure report left.

    The analysis is deliberately conservative: a value that escapes the
    local flow (passed to a non-Demi function, captured by a closure,
    returned, stored) stops being tracked and carries no further
    obligations, so every finding is a definite local protocol break.

    Findings share the {!Tool_common.finding} record and allowlist
    format ([rule path] per line, stale entries reported). *)

val check : Tool_common.source -> Tool_common.finding list
(** Check one parsed source, every rule everywhere. A source that did
    not parse yields a single [parse-error] finding. *)

val scan_source : path:string -> string -> Tool_common.finding list
(** [check] of [Tool_common.parse ~path src]. *)
