(** Drivers that regenerate every table and figure of the paper's
    evaluation (section 4), plus the ablation studies listed in DESIGN.md.

    Most figures share one experiment matrix — every workload crossed with
    the four variants O/P/R/B, co-run with the interactive task at a 5 s
    sleep — so the matrix is built once ({!run_matrix}) and formatted many
    ways.  All output is plain text, printed in the same rows/series the
    paper reports. *)

type cell_timing = {
  ct_label : string;   (** ["WORKLOAD/VARIANT"] or ["interactive-alone"] *)
  ct_wall_s : float;   (** wall-clock seconds spent simulating that cell *)
}

type matrix = {
  mx_machine : Machine.t;
  mx_sleep : Memhog_sim.Time_ns.t;
  mx_results : (string * (Experiment.variant * Experiment.result) list) list;
  mx_alone : Experiment.interactive_summary;
  mx_jobs : int;       (** worker domains the matrix was built with *)
  mx_wall_s : float;   (** wall-clock seconds for the whole matrix *)
  mx_cells : cell_timing list;  (** per-cell wall-clock, in submission order *)
}

val matrix_results : matrix -> Experiment.result list
(** Every cell result, flattened in matrix order (workloads in submission
    order, variants O/P/R/B within each) — the order {!Metrics.of_matrix}
    serializes cells in. *)

val run_matrix :
  ?machine:Machine.t ->
  ?sleep:Memhog_sim.Time_ns.t ->
  ?workloads:string list ->
  ?jobs:int ->
  ?log:(string -> unit) ->
  ?trace_dir:string ->
  ?chaos:string ->
  unit ->
  matrix
(** Runs 4 variants per workload (default: all six), each next to the
    interactive task (default sleep: 5 s, the setting of Figures 7-10b/c),
    plus the interactive-alone baseline.

    [jobs] (default 1) runs the matrix cells on that many worker domains
    ({!Pool}).  Every cell is an independent simulation with its own
    engine, OS and RNG, so [mx_results] and [mx_alone] are bit-identical
    for any [jobs] — only [mx_wall_s]/[mx_cells] change.  [log] may be
    called from worker domains, but calls are serialized.

    [chaos] applies the fault-injection plan ({!Memhog_sim.Chaos} spec) to
    every out-of-core cell; each cell rebuilds the plan from the machine
    seed, so determinism across [jobs] is preserved.  The interactive-alone
    baseline is never subjected to chaos. *)

(** {1 The paper's tables and figures} *)

val table1 : ?machine:Machine.t -> unit -> string
(** Hardware characteristics. *)

val table2 : ?machine:Machine.t -> unit -> string
(** Benchmark characteristics: what each computes, data-set size, traits,
    and the compiler's analysis statistics. *)

val fig1 :
  ?machine:Machine.t ->
  ?sleeps_s:float list ->
  ?jobs:int ->
  ?log:(string -> unit) ->
  unit ->
  string
(** Interactive response time vs sleep time, out-of-core MATVEC original
    vs prefetching (section 1.1's motivating experiment). *)

val fig7 : matrix -> string
(** Normalized execution time of the out-of-core applications, broken into
    user / system / I/O stall / resource stall, for O/P/R/B. *)

val fig8 : matrix -> string
(** Soft page faults caused by the paging daemon's reference-bit
    invalidations. *)

val table3 : matrix -> string
(** Paging-daemon activity: activations and pages stolen, original vs
    prefetch+release. *)

val fig9 : matrix -> string
(** Outcomes of freed pages: who freed them (daemon vs releaser) and how
    many were rescued from the free list. *)

val fig10a :
  ?machine:Machine.t ->
  ?sleeps_s:float list ->
  ?jobs:int ->
  ?log:(string -> unit) ->
  unit ->
  string
(** Interactive response vs sleep time for all four MATVEC variants. *)

val fig10b : matrix -> string
(** Interactive response at a 5 s sleep, normalized to running alone. *)

val fig10c : matrix -> string
(** Interactive hard page faults per sweep. *)

(** {1 Ablations} *)

val ablation_batch :
  ?machine:Machine.t ->
  ?targets:int list ->
  ?jobs:int ->
  ?log:(string -> unit) ->
  unit ->
  string
(** Sweep the run-time layer's release batch size (the paper fixes 100
    pages and notes it never varied it). *)

val ablation_hwbits :
  ?machine:Machine.t -> ?jobs:int -> ?log:(string -> unit) -> unit -> string
(** Hardware vs software-simulated reference bits: does releasing still pay
    when the daemon does not need to invalidate?  (The paper's section 6
    question.) *)

val ablation_conservative :
  ?machine:Machine.t -> ?jobs:int -> ?log:(string -> unit) -> unit -> string
(** Aggressive insertion (paper) vs the idealized section-2.3.2 rule. *)

val ablation_rescue :
  ?machine:Machine.t -> ?jobs:int -> ?log:(string -> unit) -> unit -> string
(** Free-list rescue on/off: the value of freeing to the tail. *)

val ablation_drop :
  ?machine:Machine.t -> ?jobs:int -> ?log:(string -> unit) -> unit -> string
(** Dropping prefetches when memory is low vs letting them block. *)

val ablation_tlb :
  ?machine:Machine.t -> ?jobs:int -> ?log:(string -> unit) -> unit -> string
(** Section 3.1.2's second PM feature: prefetched pages make no TLB entry.
    Compares TLB misses and run time when prefetches are allowed to
    displace live entries. *)

(** {1 Extensions beyond the paper's evaluation} *)

val ext_freemem :
  ?machine:Machine.t -> ?jobs:int -> ?log:(string -> unit) -> unit -> string
(** Free-memory-over-time telemetry for MATVEC O/P/R/B next to the
    interactive task: makes the mechanism of Figures 1/10 visible — the
    free pool collapses under prefetching and stays healthy under
    releasing. *)

val ext_reactive :
  ?machine:Machine.t -> ?jobs:int -> ?log:(string -> unit) -> unit -> string
(** Section 2.2's argument, demonstrated: a reactive (VINO-style) scheme in
    which the application only surrenders pages when the OS asks improves
    its own replacement but cannot protect the interactive task, unlike
    pro-active releasing. *)

val ext_two_hogs :
  ?machine:Machine.t -> ?jobs:int -> ?log:(string -> unit) -> unit -> string
(** Two out-of-core applications sharing the machine (the multiprogramming
    scenario section 1 motivates but the paper's evaluation does not run):
    both original vs both prefetch+release. *)

val serve_tail : Serve.t -> string
(** Figures 1/10 retold for the open-loop server: p999 response and SLO
    attainment per offered-load level and hog variant, plus the O/B p999
    ratio — the serving analogue of the normalized-response figure. *)

val serve_blame : Serve.t -> string
(** The blame complement to {!serve_tail}: each cell's tail bands (p99 and
    beyond) reduced to the share of response time spent in queue / index
    stall / value stall / CPU wait / compute — showing {e how} the
    un-released hog hurts the tail (queueing and value stalls), not just
    that it does. *)

val serve_report : Serve.t -> string
(** The whole serving report: {!Serve.render}, {!serve_tail},
    {!Serve.render_blame} and {!serve_blame}, one per paragraph — what
    {!ext_serve} and the gate's serve scenario print. *)

val ext_serve :
  ?machine:Machine.t ->
  ?jobs:int ->
  ?log:(string -> unit) ->
  ?chaos:string ->
  unit ->
  string
(** The open-loop KV server beside the MATVEC hog, O and B at the
    machine's knee loads ({!Serve.knee_rates}), 30 ms SLO, 20 s arrival
    window: {!serve_report} of that grid.  [chaos] applies the fault plan
    to every cell.  On {!Machine.quick} it runs the cells behind
    [bench/SERVE_metrics.json]. *)
