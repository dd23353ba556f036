(** The scenario registry and the regression gate ([memhog gate],
    [dune build @gate]).

    A scenario is one named, deterministic experiment on the quick machine
    with built-in assertions (the paper's shape claims and the layers'
    conservation laws) and, usually, a committed baseline
    [bench/NAME_metrics.json] that its metrics document must match at
    tolerance 0.  {!gate} runs every scenario, writes each document and
    artifact into an output directory, and fails on any diff, missing
    baseline, failed assertion or exception.  Regenerating the baselines
    on purpose is [cp OUT/*_metrics.json bench/]. *)

type outcome
(** One run's document, report, assertions and artifact writers. *)

type t = private {
  name : string;  (** ["smoke"], ["chaos"], ... *)
  cells : string;  (** what runs, for humans *)
  baseline : string option;
      (** [Some NAME]: gated against [NAME_metrics.json]; [None] for a
          scenario gated by its assertions alone *)
  assertions : string list;  (** names of the built-in assertions *)
  artifacts : string list;  (** extra files written beside the document *)
  project : Metrics_io.json -> Metrics_io.json;
      (** the part of the document the gate compares (identity except for
          perf's {!Perf.work_projection}) *)
  run : machine:Machine.t -> jobs:int -> log:(string -> unit) -> outcome;
}

val make :
  name:string ->
  cells:string ->
  ?baseline:string * ('a -> Metrics_io.json) ->
  ?project:(Metrics_io.json -> Metrics_io.json) ->
  ?assertions:(string * ('a -> unit)) list ->
  ?artifacts:(string * ('a -> path:string -> unit)) list ->
  report:('a -> string) ->
  (machine:Machine.t -> jobs:int -> log:(string -> unit) -> 'a) ->
  t
(** A scenario from its run function and what to do with the run's value:
    [baseline] names the committed file and builds the document, each
    assertion raises on failure, each artifact writes the named file. *)

val all : t list
(** [smoke] (the MATVEC mini-matrix behind BENCH), [chaos], [audit],
    [serve] (with the per-request blame checks), [tiers], [obs] and
    [perf], in gate order. *)

val baseline_file : string -> string
(** ["NAME"] to ["NAME_metrics.json"]. *)

val reconcile : Experiment.result -> (string * int * int) list
(** The page ledger's totals against the VM's own counters, one
    [(counter, ledger, vm)] row each: hard, soft and validation faults,
    zero fills, rescues, prefetches issued and dropped, releases freed and
    skipped.  They must be equal row by row. *)

val reconciliation_table : (string * int * int) list -> string
(** {!reconcile}'s rows as a table, each marked ok or MISMATCH. *)

val compare_document :
  t -> baselines:string -> Metrics_io.json -> (unit, string) result
(** The gate's compare step: [t]'s projection of the document against its
    committed baseline in directory [baselines], at tolerance 0.  [Error]
    carries the {!Metrics_io.pp_diffs} report, or names the missing or
    unreadable baseline.  Always [Ok] for a scenario without a baseline. *)

val gate :
  ?scenarios:t list ->
  ?log:(string -> unit) ->
  baselines:string ->
  out:string ->
  unit ->
  (string * string) list
(** Run [scenarios] (default {!all}) on {!Machine.quick}, print each
    report, write documents and artifacts into [out] (created if needed),
    then assert and compare.  Returns the failures as
    [(scenario, reason)] pairs — empty when the gate passes.  An exception
    anywhere inside a scenario becomes a failure, never escapes. *)
