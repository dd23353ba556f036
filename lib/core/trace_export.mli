(** Exporters for {!Memhog_sim.Trace} and {!Memhog_sim.Telemetry}.

    Two formats:
    - Chrome [trace_event] JSON (load in [chrome://tracing] or Perfetto):
      one lane (thread) per process and per kernel daemon, instant events
      for faults/steals/releases, counter tracks for free-list depth and
      RSS samples, and begin/end pairs for application phases.  Timestamps
      are simulated nanoseconds rendered as the format's microseconds.
      Disk request completions render as duration slices, and {e flow
      events} (arrows) link each directive's chain across lanes:
      prefetch-sent → issued → done → the fault it absorbed, and
      release-sent → releaser-free → rescue / refault / frame reuse.
      The document's [metadata.dropped_events] records ring overflow, so
      a truncated export is detectable.
    - CSV time series ([series,time_ns,value] rows) for figure
      regeneration. *)

val to_chrome_json : Memhog_sim.Trace.t -> string
(** The complete [{"traceEvents": [...], "metadata": {...}}] document. *)

val write_chrome_json : Memhog_sim.Trace.t -> path:string -> unit

val blame_span_to_chrome_json : Memhog_sim.Reqtrace.span -> string
(** One sampled request's critical path as a standalone Chrome-trace
    document: the request slice (lane 0), its additive blame components
    rendered as a gapless telescoping strip (lane 1: queue, index, value,
    cpu wait, compute), and the recorded demand-disk / in-transit
    sub-intervals that explain the stalls (lane 2).  Typically fed
    {!Memhog_sim.Reqtrace.slowest} — the p100 request, opened directly in
    Perfetto. *)

val write_blame_span : Memhog_sim.Reqtrace.span -> path:string -> unit

val write_telemetry : Memhog_sim.Telemetry.t -> dir:string -> unit
(** The full telemetry dump consumed by [memhog top]: creates [dir] if
    needed and writes [openmetrics.txt] (text exposition), [series.csv]
    ({!Memhog_sim.Telemetry.to_csv}: header [series,time_ns,value], one
    row per retained sample, series in registration order; the
    always-registered [trace-dropped] counter makes ring overflow visible)
    and [alerts.csv]. *)

val summary : Memhog_sim.Trace.t -> string
(** Human-readable event tally (one line per event kind), plus retained and
    dropped totals. *)
