(** The serving experiment grid: {!Memhog_exec.Server} (open-loop key-value
    traffic with Zipfian popularity) co-run with an out-of-core memory hog,
    swept over offered load x hog variant.

    This is ROADMAP item 5's experiment axis — tail latency vs offered load
    under memory pressure — and the serving analogue of Figures 1/10: at
    the same offered load, an un-released hog (O) collapses the server's
    p999 through queueing on hard faults, while buffered releasing (B)
    keeps the free pool healthy and the tail flat.

    Every cell is an independent simulation; results are bit-identical at
    any [jobs] level. *)

type cell = { sc_rate : float; sc_variant : Experiment.variant }

type t = {
  s_machine : Machine.t;
  s_workload : string;  (** the hog *)
  s_slo : Memhog_sim.Time_ns.t;
  s_chaos : string option;
  s_cells : (cell * Experiment.result) list;  (** grid order: rate-major *)
}

val default_rates : float list
(** 3200 and 4480 rps: at and beyond the knee where the un-released hog's
    page stealing overwhelms the server's self-healing re-prefetches on
    the paper machine, so the sweep shows the p999 collapse (the released
    hog keeps the tail flat through both). *)

val knee_rates : Machine.t -> float list
(** The offered loads at and past the knee of [machine]: 1600 and 3840 rps
    on {!Machine.quick}, {!default_rates} otherwise.  Below the knee both
    variants hold the SLO and the O/B comparison is noise.  {!run}'s
    default; the tiers and obs cells serve at its first (at-the-knee)
    load. *)

val run :
  ?machine:Machine.t ->
  ?rates:float list ->
  ?duration:Memhog_sim.Time_ns.t ->
  ?chaos:string ->
  ?jobs:int ->
  ?log:(string -> unit) ->
  unit ->
  t
(** Run the grid on [jobs] worker domains: the MATVEC hog, unreleased (O)
    and buffered-releasing (B) — the paper's bookends — at each of [rates]
    (default: {!knee_rates}[ machine]), with a 30 ms SLO and a [duration] (default 20 s) arrival window.
    [chaos] applies the same fault-injection spec to every cell (rebuilt
    per cell from the machine seed, preserving determinism). *)

val cells : t -> (cell * Experiment.result) list
val results : t -> Experiment.result list
(** Flattened grid-order results, ready for {!Metrics.of_results}. *)

val label : t -> string
(** ["serve HOG MACHINE"]: the label of the grid's metrics document (the
    serve scenario's [SERVE_metrics.json]). *)

val slowest : t -> Memhog_sim.Reqtrace.span option
(** The slowest sampled request across the whole grid (first on ties) —
    feed {!Trace_export.write_blame_span}. *)

val serving_exn : Experiment.result -> Memhog_exec.Server.summary
(** The serving close-out of a grid cell.
    @raise Invalid_argument on a non-serve result. *)

val blame_exn : Experiment.result -> Memhog_sim.Reqtrace.summary
(** The per-request blame close-out of a grid cell.
    @raise Invalid_argument on a non-serve result. *)

val render : t -> string
(** Plain-text tail-latency table (p50/p99/p999 + SLO attainment), plus an
    explicit warning line for any cell that recorded no responses — its
    0% attainment is vacuous, not measured. *)

val render_blame : t -> string
(** Plain-text blame tables: mean per-request response-time decomposition
    by percentile band (the serving report's blame headline — components sum to
    the response column exactly), plus the prefetch-race and demand-disk
    attribution counters per cell. *)
