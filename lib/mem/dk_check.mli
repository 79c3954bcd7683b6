(** Sanitizer-mode violation reporting.

    Kernel-bypass makes memory and completion bugs silent: a device DMAs
    into a buffer the application already freed, or a queue completes a
    token twice, and nothing faults — data is simply wrong later (§4.4,
    §4.5). Sanitizer mode makes those bugs loud. It is opt-in
    ([Manager.create ~sanitize:true], [Token.create ~audit:true], or
    [DK_SANITIZE=1] in the environment) so the fast path stays free of
    defensive checks when off.

    A detection calls {!report}, which raises {!Violation} — unless the
    caller is inside {!capture}, which collects reports instead (how the
    sanitizer's own tests, and shutdown leak sweeps, read multiple
    findings). *)

type kind =
  | Use_after_free      (** access to a freed view or released allocation *)
  | Double_free         (** second free of the same view *)
  | Canary_smash        (** guard bytes around an allocation overwritten *)
  | Leak                (** allocation still live at shutdown *)
  | Token_double_complete      (** queue completed the same token twice *)
  | Token_redeem_after_watch   (** watched token also waited on *)
  | Token_dangling             (** token left pending when a queue drained *)

val kind_name : kind -> string

exception Violation of kind * string

val enabled_from_env : unit -> bool
(** True when [DK_SANITIZE] is [1]/[true]/[yes]/[on]. *)

val report : kind -> string -> unit
(** Raise {!Violation} — or record it, inside {!capture}. *)

val capture : (unit -> 'a) -> 'a * (kind * string) list
(** Run the thunk with reports collected (oldest first) instead of
    raised. Nests; an exception from the thunk still unwinds the
    capture frame. *)

val set_sink : (kind -> string -> unit) -> unit
(** Observe every report (raised or captured), e.g. to mirror into the
    flight recorder ({!Dk_obs.Flight}). *)

val clear_sink : unit -> unit
