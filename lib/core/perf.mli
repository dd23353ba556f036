(** Wall-clock throughput benchmark ([memhog perf], the perf scenario).

    Runs a small grid of workload cells and measures how fast the simulator
    itself executes: events/sec, faults/sec, simulated-ns per wall-ns, and
    GC allocation rates ({!Gc.quick_stat} deltas, read inside the worker
    domain that ran the cell).  Results go to a [PERF_metrics.json]
    trajectory file with a strict split:

    - ["work"] members are deterministic work counters (engine events
      executed, faults serviced, iterations, simulated ns) — identical at
      any [--jobs] level and gated zero-tolerance by [memhog gate];
    - ["wall"] members are wall-clock and allocation numbers — recorded
      informationally, never gated.

    Cells run with the page-lifecycle ledger off ([ledger_on = false]) so
    the bench sees the bare kernel; the ledger never touches the engine, so
    the work counters are the same either way (and [--ledger] turns it back
    on to measure its cost). *)

type cell = { pc_workload : string; pc_variant : Experiment.variant }

val default_cells : cell list
(** The perf scenario's grid: MATVEC/O, MATVEC/R, EMBAR/B, CGM/P. *)

type cell_result = {
  pr_label : string;  (** "WORKLOAD/VARIANT" *)
  (* deterministic work counters (gated) *)
  pr_events : int;        (** engine events executed *)
  pr_hard_faults : int;
  pr_soft_faults : int;
  pr_iterations : int;
  pr_sim_ns : int;        (** simulated elapsed time *)
  (* wall-clock + allocation (informational) *)
  pr_wall_s : float;
  pr_events_per_sec : float;
  pr_faults_per_sec : float;
  pr_sim_ns_per_wall_ns : float;
  pr_minor_words : float;        (** GC delta over the cell *)
  pr_promoted_words : float;
  pr_major_words : float;
  pr_minor_collections : int;
  pr_major_collections : int;
  pr_minor_words_per_event : float;
}

type t = {
  p_machine : string;
  p_jobs : int;
  p_ledger : bool;             (** cells ran with the lifecycle ledger on *)
  p_total_wall_s : float;
  p_cells : cell_result list;
}

val run :
  ?cells:cell list ->
  ?ledger:bool ->
  machine:Machine.t ->
  jobs:int ->
  unit ->
  t
(** Run the grid on a {!Pool} with [jobs] workers.  [ledger] defaults to
    [false] (bare kernel).  GC deltas are measured inside each worker. *)

val to_json : t -> Metrics_io.json
(** Stable-key document: [{"schema": "memhog-perf", "schema_version": 1,
    "machine": ..., "jobs": ..., "cells": [{"label", "work", "wall"}, ...]}]. *)

val write_file : path:string -> t -> unit

val work_projection : Metrics_io.json -> Metrics_io.json
(** Strip every informational member (["wall"], ["jobs"], ["total_wall_s"])
    so only the gated work counters remain.  Two runs of the same grid —
    at any [--jobs], with any wall-clock — project to byte-identical
    documents; the perf scenario gates this projection. *)

val render : t -> string
(** Human-readable table of the run (events/sec, faults/sec, sim-ns per
    wall-ns, minor words per event). *)
