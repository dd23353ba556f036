(** The observation handle: the three sinks that watch a run — the event
    ring ({!Trace}), the page-lifecycle ledger ({!Ledger}) and the
    per-request blame layer ({!Reqtrace}) — and the one path every
    producer emits through.  A fixed record, not a subscriber list.

    Both guards are computed once at {!create}.  A producer builds an
    event only under the guard of the sinks that read it: {!on} for the
    lifecycle events the ledger or the blame layer match, {!recording}
    for timeline-only events, which the ring alone reads ({!Trace.event}
    groups its constructors this way).

    {[
      if Obs.on obs then
        Obs.emit obs ~time ~stream:pid (Trace.Hard_fault { vpn })
    ]} *)

type t

val null : t
(** Nothing watches: both guards are false. *)

val create :
  ?ring:Trace.t -> ?ledger:Ledger.t -> ?reqtrace:Reqtrace.t -> unit -> t
(** Each sink defaults to its module's [null]. *)

val on : t -> bool
(** Some sink is enabled. *)

val recording : t -> bool
(** The ring is enabled. *)

val emit : t -> time:Time_ns.t -> stream:int -> Trace.event -> unit
(** Feed one event to all three sinks; a disabled sink ignores it.
    [stream] is the acting process's pid, or a reserved daemon stream
    ({!Trace.daemon_stream} ...) whose events carry the owning pid in
    their payload. *)

val ring : t -> Trace.t
val ledger : t -> Ledger.t
val reqtrace : t -> Reqtrace.t
