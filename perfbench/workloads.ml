(* The benchmark's three workloads, built from the public Experiment API
   on the Table 1 machine ([Machine.paper]).  The workload seed becomes
   the machine seed; every other input is fixed here. *)

module E = Memhog_core.Experiment
module Machine = Memhog_core.Machine
module Workload = Memhog_workloads.Workload
module Compile = Memhog_compiler.Compile
module Pir = Memhog_compiler.Pir
module Engine = Memhog_sim.Engine
module Time_ns = Memhog_sim.Time_ns
module Os = Memhog_vm.Os

type shape =
  | Batch of { passes : int }
      (** closed loop: the hog runs [passes] passes next to the
          interactive task, which sleeps 5 s between sweeps *)
  | Serve of { rate_rps : float; tiers : string }
      (** open loop in simulated time: Poisson arrivals over the default
          20 s window, 30 ms SLO, next to the hog *)

type t = {
  name : string;
  hog : string;
  variant : E.variant;
  shape : shape;
}

(* Pass counts keep one run near a second of host time, so that one
   measurement holds many runs (see README.md, "Host speed"). *)
let fault_storm =
  { name = "fault-storm"; hog = "MATVEC"; variant = E.O; shape = Batch { passes = 5 } }

let release_buffered =
  { name = "release-buffered"; hog = "MATVEC"; variant = E.B; shape = Batch { passes = 3 } }

(* 4480 rps is the past-knee point of [Serve.default_rates]. *)
let serve_tiered =
  {
    name = "serve-tiered";
    hog = "EMBAR";
    variant = E.B;
    shape = Serve { rate_rps = 4480.0; tiers = "far" };
  }

let all = [ fault_storm; release_buffered; serve_tiered ]
let find name = List.find_opt (fun w -> w.name = name) all
let is_serve w = match w.shape with Serve _ -> true | Batch _ -> false

(* The observability switches a run can flip.  [default_obs] is the
   workload's own setting: the ledger is on everywhere (the Experiment
   default), telemetry only on serve-tiered. *)
type obs = { ledger : bool; telemetry : bool; trace : bool }

let default_obs w = { ledger = true; telemetry = is_serve w; trace = false }
let machine ~seed = { Machine.paper with Machine.m_seed = seed }
let interactive_sleep = Time_ns.sec 5

let setup ?obs w ~seed =
  let obs = Option.value obs ~default:(default_obs w) in
  let machine = machine ~seed in
  let workload = Workload.find w.hog in
  let trace = if obs.trace then Some (Memhog_sim.Trace.create ()) else None in
  match w.shape with
  | Batch { passes } ->
      E.setup ~machine ~interactive_sleep ~iterations:passes ?trace
        ~ledger_on:obs.ledger ~telemetry:obs.telemetry ~workload
        ~variant:w.variant ()
  | Serve { rate_rps; tiers } ->
      let serve = E.serve_cfg ~machine ~rate_rps () in
      E.setup ~machine ~serve ~tiers ?trace ~ledger_on:obs.ledger
        ~telemetry:obs.telemetry ~workload ~variant:w.variant ()

let pir_variant = function
  | E.O -> Pir.V_original
  | E.P -> Pir.V_prefetch
  | E.R | E.B -> Pir.V_release

type prepared = {
  make_s : float;
  compile_s : float;
  os_create_s : float;
  os : Os.t;
}

(* The work [Experiment.run] does before its engine starts, done through
   the same public calls: generate the program and its data-set
   parameters, compile it for the machine, and build the kernel (with its
   tier router, when the workload has one).  Each phase runs [n] times in
   a row and is timed as a batch, so its per-call time resolves below the
   clock's microsecond. *)
let prepare ?(n = 1) (s : E.setup) =
  let m = s.E.machine in
  let page_bytes = m.Machine.m_config.Memhog_vm.Config.page_bytes in
  let batch name f =
    let t0 = Unix.gettimeofday () in
    let v = Spans.with_span name (fun () -> List.init n (fun _ -> f ())) in
    ((Unix.gettimeofday () -. t0) /. float_of_int n, List.hd v)
  in
  let make_s, (ir, _params) =
    batch "Workload.w_make" (fun () ->
        s.E.workload.Workload.w_make ~mem_bytes:(Machine.mem_bytes m) ~page_bytes)
  in
  let compile_s, _prog =
    batch "Compile.compile" (fun () ->
        Compile.compile ~target:(Machine.compiler_target m)
          ~conservative:s.E.conservative ~variant:(pir_variant s.E.variant) ir)
  in
  let os_create_s, os =
    batch "Os.create" (fun () ->
        let engine = Engine.create ~max_time:s.E.max_sim_time () in
        Os.create ~swap_config:m.Machine.m_swap
          ?tiers:(Option.map Memhog_vm.Tiers.spec_of_string_exn s.E.tiers)
          ~config:m.Machine.m_config ~engine ())
  in
  { make_s; compile_s; os_create_s; os }
