(** The metrics document: the stable, comparable summary of an experiment,
    and its human-readable report.

    An {!Experiment.result} carries raw simulation state (histograms,
    accounts, telemetry, traces).  This module encodes it straight into the
    schema-v7 JSON document (README, "Derived metrics", lists every key):
    one encoder per layer, each over the summary type that layer already
    exports.  Every key string of the document lives here, the writer
    ({!of_results}) and the reader ({!render}) alike; {!Metrics_io} only
    knows the format.

    Every number is derived from simulated time and deterministic counters
    only — never wall-clock — so two runs of the same seed and
    configuration produce byte-identical documents regardless of
    [--jobs]. *)

val of_result : Experiment.result -> Metrics_io.json
(** One cell object. *)

val of_results : label:string -> Experiment.result list -> Metrics_io.json
(** The whole document: the {!Metrics_io.header}, the label, the cells in
    the given order and the totals aggregated over all of them. *)

val of_matrix : Figures.matrix -> Metrics_io.json
(** The whole experiment matrix, cells in {!Figures.matrix_results} order. *)

val render : Metrics_io.json -> (string, string) result
(** Human-readable tables ({!Report.table}) for a parsed metrics document:
    Figure 7 breakdowns, fault/prefetch/response percentiles, serving tail
    and blame, release accuracy, disk and tier traffic, the ledger,
    telemetry, chaos and the governor, and the totals.  A section whose
    object is absent from every cell is left out. *)
