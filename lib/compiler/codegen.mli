(** Lowering from analyzed loop nests to PIR executables.

    Implements the transformation of Figure 4: loop splitting (here:
    strip-mining the innermost loop by page), software pipelining of
    prefetches (a prologue fetches the first [distance] chunks; the steady
    state fetches [distance] chunks ahead), and insertion of prefetch
    requests for group-leading references and release requests (with
    equation-2 priorities and per-site tags) for group-trailing references.

    The three variants correspond to the paper's bars: [V_original] has no
    directives, [V_prefetch] prefetches only, [V_release] both prefetches
    and releases.  The aggressive-release (R) and buffered-release (B) runs
    execute the same [V_release] code under different run-time policies. *)

val prefetch_distance_chunks :
  target:Analysis.target -> chunk_ns:int -> int
(** ceil(fault latency / chunk time), clamped to [1, 64]. *)

val compile :
  ?conservative:bool ->
  variant:Pir.variant ->
  inputs:string list ->
  Analysis.t ->
  Pir.prog
(** [conservative] follows the idealized rule of section 2.3.2 (no
    directives for references whose reuse provably fits in memory); the
    default [false] matches the paper's implementation, which inserts
    releases "far more aggressively" and lets the run-time layer arbitrate
    (section 3.2).  [inputs] are the program's inputs as {!Ir.validate}
    found them, recorded in [px_inputs]. *)
