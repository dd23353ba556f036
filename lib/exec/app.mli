(** Execution of compiled (PIR) programs as simulated processes.

    [create] builds the process: an address space with one segment per
    program array (sized under the given runtime parameter values), the
    PagingDirected policy module attached, and a run-time layer in the
    requested release policy.  [run] interprets the program against the VM:
    touches become page references (faulting as needed), compute chunks
    occupy a CPU, and prefetch/release directives flow through the run-time
    layer's filters and helper threads.

    Indirect references draw from deterministic per-site random streams
    seeded from [seed] and the site's stable id, so the O/P/R/B variants of
    a program see identical index sequences. *)

type t

val create :
  ?seed:int ->
  ?runtime_policy:Memhog_runtime.Runtime.policy ->
  ?release_target:int ->
  ?rt_threads:int ->
  ?governor:Memhog_runtime.Runtime.governor_cfg ->
  os:Memhog_vm.Os.t ->
  params:(string * int) list ->
  Memhog_compiler.Pir.prog ->
  t
(** The runtime policy only matters for [V_release] programs: Aggressive
    gives the paper's R bars, Buffered the B bars.  [governor] enables the
    run-time layer's graceful-degradation governor (see
    {!Memhog_runtime.Runtime.governor_cfg}).

    Every name is resolved here, once: the parameters fill the program's
    frame slots, each statement's array becomes its segment and each
    indirect reference its stream.
    @raise Invalid_argument naming the parameter when [params] lacks one of
    the program's inputs ({!Memhog_compiler.Pir.prog}[.px_inputs]), or
    naming the array or procedure when a statement refers to one the
    program does not declare. *)

val asp : t -> Memhog_vm.Address_space.t
val runtime : t -> Memhog_runtime.Runtime.t

val run : t -> iterations:int -> unit
(** Interpret the whole program [iterations] times.  Must be called from
    inside a simulated process. *)

val exec_main : t -> unit
(** One pass over the program's main computation (starts the run-time
    layer's helper threads on first use). *)

val finish : t -> unit
(** Flush the run-time layer's buffered releases (application exit). *)

val touched_pages : t -> int
(** Total page touches executed (for tests). *)
