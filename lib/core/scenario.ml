(* The scenario registry and the regression gate.  Every scenario is a
   run function plus what to do with its value — the document gated
   against a committed baseline, named assertions, artifact writers and a
   report — packed into closures so the table can hold scenarios of
   different result types. *)

module E = Experiment
module Workload = Memhog_workloads.Workload
module Time_ns = Memhog_sim.Time_ns
module Trace = Memhog_sim.Trace
module Chaos = Memhog_sim.Chaos
module Ledger = Memhog_sim.Ledger
module Reqtrace = Memhog_sim.Reqtrace
module Runtime = Memhog_runtime.Runtime
module VS = Memhog_vm.Vm_stats

type outcome = {
  document : Metrics_io.json option;
  report : string;
  checks : (string * (unit -> unit)) list;
  writers : (string * (string -> unit)) list;
}

type t = {
  name : string;
  cells : string;
  baseline : string option;
  assertions : string list;
  artifacts : string list;
  project : Metrics_io.json -> Metrics_io.json;
  run : machine:Machine.t -> jobs:int -> log:(string -> unit) -> outcome;
}

let make ~name ~cells ?baseline ?(project = Fun.id) ?(assertions = [])
    ?(artifacts = []) ~report run =
  {
    name;
    cells;
    baseline = Option.map fst baseline;
    assertions = List.map fst assertions;
    artifacts = List.map fst artifacts;
    project;
    run =
      (fun ~machine ~jobs ~log ->
        let v = run ~machine ~jobs ~log in
        {
          document = Option.map (fun (_, doc) -> doc v) baseline;
          report = report v;
          checks = List.map (fun (n, check) -> (n, fun () -> check v)) assertions;
          writers =
            List.map (fun (f, write) -> (f, fun path -> write v ~path)) artifacts;
        });
  }

let baseline_file name = name ^ "_metrics.json"
let require cond msg = if not cond then failwith msg

(* ------------------------------------------------------------------ *)
(* smoke: the MATVEC mini-matrix behind BENCH                          *)
(* ------------------------------------------------------------------ *)

(* BENCH_matrix.json: the matrix's wall-clock per cell (informational). *)
let write_matrix_json (m : Figures.matrix) ~path =
  let open Metrics_io in
  let wall f = Num (f, Printf.sprintf "%.6f" f) in
  let serial =
    List.fold_left (fun acc c -> acc +. c.Figures.ct_wall_s) 0.0 m.Figures.mx_cells
  in
  let speedup =
    if m.Figures.mx_wall_s > 0.0 then serial /. m.Figures.mx_wall_s else 1.0
  in
  write_json ~path
    (Obj
       [
         ("schema_version", num_of_int 1);
         ("machine", Str m.Figures.mx_machine.Machine.m_name);
         ("jobs", num_of_int m.Figures.mx_jobs);
         ("total_wall_s", wall m.Figures.mx_wall_s);
         ("serial_estimate_s", wall serial);
         ("speedup_vs_serial", Num (speedup, Printf.sprintf "%.3f" speedup));
         ( "cells",
           Arr
             (List.map
                (fun (c : Figures.cell_timing) ->
                  Obj
                    [
                      ("label", Str c.Figures.ct_label);
                      ("wall_s", wall c.Figures.ct_wall_s);
                    ])
                m.Figures.mx_cells) );
       ])

let smoke =
  make ~name:"smoke" ~cells:"MATVEC x O/P/R/B beside the 5 s interactive task"
    ~baseline:("BENCH", Metrics.of_matrix)
    ~assertions:
      [
        ( "OS invariants hold in every cell",
          fun m ->
            List.iter
              (fun (r : E.result) ->
                require r.E.r_invariants_ok
                  (Printf.sprintf "%s/%s: OS invariants violated" r.E.r_workload
                     (E.variant_name r.E.r_variant)))
              (Figures.matrix_results m) );
      ]
    ~artifacts:[ ("BENCH_matrix.json", write_matrix_json) ]
    ~report:Figures.fig7
    (fun ~machine ~jobs ~log ->
      Figures.run_matrix ~machine ~workloads:[ "MATVEC" ] ~jobs ~log ())

(* ------------------------------------------------------------------ *)
(* chaos: canned fault plans + the degradation governor                 *)
(* ------------------------------------------------------------------ *)

(* Tighter ladder than the production default: the canned plans are short
   (seconds of simulated time), so windows close faster and a single bad
   window is enough to step down. *)
let chaos_governor =
  {
    Runtime.gv_window_ns = Time_ns.ms 100;
    gv_min_samples = 4;
    gv_bad_rate = 0.3;
    gv_degrade_after = 1;
    gv_recover_after = 3;
  }

type plan = {
  pl_name : string;
  pl_workload : string;
  pl_variant : E.variant;
  pl_sleep : Time_ns.t option;
  pl_spec : string;
}

let plans =
  [
    {
      pl_name = "disk-brown-out";
      pl_workload = "EMBAR";
      pl_variant = E.B;
      pl_sleep = None;
      pl_spec = "disk-fault@2s-6s:p=0.8,retries=4;disk-slow@2s-6s:factor=32";
    };
    {
      pl_name = "releaser-outage";
      pl_workload = "MATVEC";
      pl_variant = E.B;
      pl_sleep = None;
      pl_spec = "releaser-stall@1s-3s;releaser-drop@1s-4s:p=0.5";
    };
    {
      pl_name = "pressure-spike";
      pl_workload = "MATVEC";
      pl_variant = E.R;
      pl_sleep = Some (Time_ns.sec 2);
      pl_spec = "pressure@10s-40s:pages=512,hold=2s";
    };
  ]

let run_plan ~machine ~log p =
  log
    (Printf.sprintf "chaos %s: %s/%s under %S" p.pl_name p.pl_workload
       (E.variant_name p.pl_variant) p.pl_spec);
  let min_sim_time = match p.pl_sleep with Some _ -> Time_ns.sec 45 | None -> 0 in
  E.run
    (E.setup ~machine ?interactive_sleep:p.pl_sleep ~min_sim_time
       ~trace:(Trace.create ()) ~chaos:p.pl_spec ~governor:chaos_governor
       ~workload:(Workload.find p.pl_workload) ~variant:p.pl_variant ())

(* The result of the named plan, with its chaos and runtime stats. *)
let plan_stats (_, rs) name =
  let r = List.assoc name (List.combine (List.map (fun p -> p.pl_name) plans) rs) in
  (r, Option.get r.E.r_chaos, Option.get r.E.r_runtime)

(* The brown-out must drive the governor all the way to demand paging
   (level 2) and back — both directions visible as trace events and in
   the runtime's transition counters. *)
let governor_round_trip run =
  let r, _, rt = plan_stats run "disk-brown-out" in
  let reached_2 = ref false and recovered = ref false in
  Trace.iter r.E.r_trace (fun ~time:_ ~stream:_ ev ->
      match ev with
      | Trace.Governor_transition { level_to = 2; _ } -> reached_2 := true
      | Trace.Governor_transition { level_from = 2; _ } -> recovered := true
      | _ -> ());
  require !reached_2 "governor never degraded to demand paging (level 2)";
  require !recovered "governor never recovered from level 2";
  require
    (rt.Runtime.rt_gov_degrades >= 2 && rt.Runtime.rt_gov_recoveries >= 1)
    "transition counters missing from runtime stats"

let chaos_report (_, rs) =
  let rows =
    List.map2
      (fun p (r : E.result) ->
        let cs = Option.get r.E.r_chaos and rt = Option.get r.E.r_runtime in
        [
          p.pl_name;
          Printf.sprintf "%s/%s" p.pl_workload (E.variant_name p.pl_variant);
          Time_ns.to_string r.E.r_elapsed;
          string_of_int cs.Chaos.disk_faults;
          string_of_int cs.Chaos.directives_dropped;
          Printf.sprintf "%d/%d" cs.Chaos.pressure_spikes cs.Chaos.pressure_pages;
          Printf.sprintf "%d/%d" rt.Runtime.rt_gov_degrades
            rt.Runtime.rt_gov_recoveries;
          string_of_int rt.Runtime.rt_prefetch_os_dropped;
          (if r.E.r_invariants_ok then "ok" else "VIOLATED");
        ])
      plans rs
  in
  Format.asprintf "@[<v>%t@]" (fun fmt ->
      Report.table ~title:"Chaos scenarios (canned fault plans)"
        ~header:
          [
            "scenario"; "run"; "elapsed"; "disk faults"; "dropped";
            "pressure (spikes/pages)"; "governor (deg/rec)"; "prefetch drops";
            "invariants";
          ]
        ~rows fmt ())

let chaos =
  make ~name:"chaos"
    ~cells:
      "EMBAR/B disk brown-out, MATVEC/B releaser outage, MATVEC/R pressure \
       spike"
    ~baseline:
      ( "CHAOS",
        fun (machine, rs) ->
          Metrics.of_results
            ~label:(Printf.sprintf "chaos scenarios, %s" machine.Machine.m_name)
            rs )
    ~assertions:
      [
        ( "OS invariants hold after every plan",
          fun (_, rs) ->
            List.iter2
              (fun p (r : E.result) ->
                require r.E.r_invariants_ok
                  (p.pl_name ^ ": OS invariants violated after the run"))
              plans rs );
        ("governor reaches level 2 and recovers", governor_round_trip);
        ( "disk faults injected",
          fun run ->
            let _, cs, _ = plan_stats run "disk-brown-out" in
            require (cs.Chaos.disk_faults > 0) "no disk faults were injected" );
        ( "directives dropped and releaser stalled",
          fun run ->
            let _, cs, _ = plan_stats run "releaser-outage" in
            require (cs.Chaos.directives_dropped > 0)
              "no release directives were dropped";
            require (cs.Chaos.releaser_stall_ns > 0) "the releaser never stalled" );
        ( "pressure spikes fired",
          fun run ->
            let _, cs, _ = plan_stats run "pressure-spike" in
            require (cs.Chaos.pressure_spikes > 0) "no pressure spike fired";
            require (cs.Chaos.pressure_pages > 0)
              "the phantom competitor claimed no pages" );
      ]
    ~report:chaos_report
    (fun ~machine ~jobs ~log ->
      (machine, Pool.map ~jobs (run_plan ~machine ~log) plans))

(* ------------------------------------------------------------------ *)
(* audit: ledger reconciliation + serial == pooled                      *)
(* ------------------------------------------------------------------ *)

let reconcile (r : E.result) =
  let l = r.E.r_ledger and s = VS.create_proc () in
  VS.add_proc s r.E.r_app_stats;
  Option.iter (VS.add_proc s) r.E.r_inter_stats;
  [
    ("hard faults", l.Ledger.ls_hard_faults, s.VS.hard_faults);
    ("soft faults", l.Ledger.ls_soft_faults, s.VS.soft_faults);
    ("validation faults", l.Ledger.ls_validation_faults, s.VS.validation_faults);
    ("zero fills", l.Ledger.ls_zero_fills, s.VS.zero_fills);
    ("rescues", l.Ledger.ls_rescues, s.VS.rescued_daemon + s.VS.rescued_releaser);
    ("prefetches issued", l.Ledger.ls_prefetches_issued, s.VS.prefetches_issued);
    ("prefetches dropped", l.Ledger.ls_prefetches_dropped, s.VS.prefetches_dropped);
    ("releases freed", l.Ledger.ls_releases_freed, s.VS.freed_by_releaser);
    ("releases skipped", l.Ledger.ls_releases_skipped, s.VS.releases_skipped);
  ]

let reconciliation_table rows =
  Format.asprintf "@[<v>%t@]@." (fun fmt ->
      Report.table ~title:"Reconciliation (ledger vs Vm_stats)"
        ~header:[ "counter"; "ledger"; "vm"; "status" ]
        ~rows:
          (List.map
             (fun (name, lv, vv) ->
               [
                 name; Report.count lv; Report.count vv;
                 (if lv = vv then "ok" else "MISMATCH");
               ])
             rows)
        fmt ())

let audit_render r = Metrics_io.to_string (Metrics.of_results ~label:"audit" [ r ])

let audit =
  make ~name:"audit" ~cells:"EMBAR/B serially, then twice in the worker pool"
    ~assertions:
      [
        ( "ledger totals reconcile with Vm_stats",
          fun (serial, _) ->
            List.iter
              (fun (name, lv, vv) ->
                require (lv = vv)
                  (Printf.sprintf "%s: ledger %d <> vm %d" name lv vv))
              (reconcile serial) );
        ( "Ledger.invariants_ok",
          fun (serial, _) ->
            require
              (Ledger.invariants_ok serial.E.r_ledger)
              "ledger summary violates its structural invariants" );
        ( "serial == pooled metrics bytes",
          fun (serial, pooled) ->
            require
              (audit_render serial = audit_render pooled)
              "metrics (ledger included) differ between serial and pooled runs" );
      ]
    ~report:(fun (serial, _) ->
      let l = serial.E.r_ledger in
      Printf.sprintf "Ledger audit: EMBAR/B, %d sites, %d pages\n%s"
        (List.length l.Ledger.ls_sites)
        l.Ledger.ls_pages_tracked
        (reconciliation_table (reconcile serial)))
    (fun ~machine ~jobs ~log ->
      let run () =
        E.run (E.setup ~machine ~workload:(Workload.find "EMBAR") ~variant:E.B ())
      in
      (* At least two workers, or the pooled replicas would run serially on
         this domain and the comparison would be vacuous. *)
      let jobs = max 2 jobs in
      log (Printf.sprintf "audit: EMBAR/B serial + %d pooled replicas" jobs);
      let serial = run () in
      (serial, List.hd (Pool.map ~jobs run [ (); () ])))

(* ------------------------------------------------------------------ *)
(* serve: open-loop tail latency under a hog, with per-request blame   *)
(* ------------------------------------------------------------------ *)

(* At every offered load the buffered-release hog must leave the server a
   strictly better p999 than the un-released hog. *)
let p999_beats t =
  let p999 rate v =
    let _, r =
      List.find
        (fun ((c : Serve.cell), _) ->
          c.Serve.sc_rate = rate && c.Serve.sc_variant = v)
        (Serve.cells t)
    in
    Memhog_sim.Histogram.percentile
      (Serve.serving_exn r).Memhog_exec.Server.sm_hist 99.9
  in
  let rates = List.map (fun ((c : Serve.cell), _) -> c.Serve.sc_rate) in
  List.iter
    (fun rate ->
      let o = p999 rate E.O and b = p999 rate E.B in
      require (b < o)
        (Printf.sprintf
           "at %g rps buffered release must beat the un-released hog on p999 \
            (O %d ns, B %d ns)"
           rate o b))
    (List.sort_uniq compare (rates (Serve.cells t)))

(* Additivity is structural in Reqtrace: any sampled span whose five
   components miss its response means the span lifecycle was corrupted. *)
let spans_additive t =
  List.iter
    (fun (r : E.result) ->
      Reqtrace.iter_sampled r.E.r_reqtrace (fun sp ->
          let parts =
            sp.Reqtrace.sp_queue + sp.Reqtrace.sp_index + sp.Reqtrace.sp_value
            + sp.Reqtrace.sp_cpu + sp.Reqtrace.sp_compute
          in
          require
            (parts = sp.Reqtrace.sp_response)
            (Printf.sprintf "span key=%d components sum to %d ns, response %d ns"
               sp.Reqtrace.sp_key parts sp.Reqtrace.sp_response)))
    (Serve.results t)

let serve =
  make ~name:"serve"
    ~cells:"KV server beside the MATVEC hog, {O,B} x the machine's knee loads"
    ~baseline:
      ("SERVE", fun t -> Metrics.of_results ~label:(Serve.label t) (Serve.results t))
    ~assertions:
      [
        ("B's p999 strictly below O's at every load", p999_beats);
        ("every sampled span additive", spans_additive);
      ]
    ~artifacts:
      [
        ( "BLAME_slowest.trace.json",
          fun t ~path ->
            match Serve.slowest t with
            | Some sp -> Trace_export.write_blame_span sp ~path
            | None -> failwith "no requests recorded" );
      ]
    ~report:Figures.serve_report
    (fun ~machine ~jobs ~log ->
      Serve.run ~machine ~jobs ~log ())

(* ------------------------------------------------------------------ *)
(* tiers and obs: the far-tier partition, with and without telemetry    *)
(* ------------------------------------------------------------------ *)

(* Both cells serve at the at-the-knee load: low enough that post-window
   recovery is physically possible, high enough that the fault window sees
   thousands of in-flight requests. *)
let knee machine = List.hd (Serve.knee_rates machine)

let tiers =
  make ~name:"tiers"
    ~cells:"EMBAR/B over swap/far/zram/far+zram, plus a far partition mid-serve"
    ~baseline:
      ( "TIER",
        fun t -> Metrics.of_results ~label:(Tier_exp.label t) (Tier_exp.results t) )
    ~assertions:[ ("Tier_exp.check", Tier_exp.check) ]
    ~report:Tier_exp.render
    (fun ~machine ~jobs ~log ->
      Tier_exp.run ~machine ~rate:(knee machine) ~jobs ~log ())

let obs =
  make ~name:"obs" ~cells:"the far-partition brownout cell with full telemetry"
    ~baseline:
      ( "OBS",
        fun t ->
          Metrics.of_results
            ~label:(Printf.sprintf "obs %s" t.Obs_exp.ox_machine.Machine.m_name)
            (Obs_exp.results t) )
    ~assertions:[ ("Obs_exp.check", Obs_exp.check) ]
    ~artifacts:
      [
        ( "OBS_openmetrics.txt",
          fun t ~path ->
            Out_channel.with_open_bin path (fun oc ->
                output_string oc
                  (Memhog_sim.Telemetry.to_openmetrics (Obs_exp.telemetry t))) );
      ]
    ~report:Obs_exp.render
    (* One cell, so no jobs; the registry is cell-private anyway. *)
    (fun ~machine ~jobs:_ ~log ->
      Obs_exp.run ~machine ~rate:(knee machine) ~log ())

(* ------------------------------------------------------------------ *)
(* perf: wall-clock throughput, work counters gated                     *)
(* ------------------------------------------------------------------ *)

(* The most minor words per event each cell may allocate: the figure
   measured with OCaml 5.1.1 once [Engine.delay] stopped allocating when no
   other event can run first, times 1.15 (rounded up).  The headroom covers
   the spread of up to 5% between 5.1.1 and 5.2 seen in the committed PERF
   baseline; CI runs 5.2. *)
let words_per_event_ceilings =
  [ ("MATVEC/O", 13.77); ("MATVEC/R", 13.76); ("EMBAR/B", 22.34); ("CGM/P", 10.95) ]

let check_words_per_event (p : Perf.t) =
  List.iter
    (fun (c : Perf.cell_result) ->
      match List.assoc_opt c.Perf.pr_label words_per_event_ceilings with
      | None ->
          failwith
            (Printf.sprintf "perf cell %s has no words/event ceiling" c.Perf.pr_label)
      | Some ceiling ->
          require
            (c.Perf.pr_minor_words_per_event <= ceiling)
            (Printf.sprintf
               "perf cell %s: %.2f minor words/event exceeds its ceiling %.2f"
               c.Perf.pr_label c.Perf.pr_minor_words_per_event ceiling))
    p.Perf.p_cells

(* Always one job: per-cell wall-clock numbers only mean something when
   each cell runs alone.  The gated work counters are jobs-independent
   either way. *)
let perf =
  make ~name:"perf" ~cells:"MATVEC/O, MATVEC/R, EMBAR/B, CGM/P, ledger off"
    ~baseline:("PERF", Perf.to_json) ~project:Perf.work_projection
    ~assertions:[ ("minor words/event within each cell's ceiling", check_words_per_event) ]
    ~report:Perf.render
    (fun ~machine ~jobs:_ ~log:_ -> Perf.run ~machine ~jobs:1 ())

let all = [ smoke; chaos; audit; serve; tiers; obs; perf ]

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)
(* ------------------------------------------------------------------ *)

let compare_document s ~baselines doc =
  match s.baseline with
  | None -> Ok ()
  | Some name -> (
      let path = Filename.concat baselines (baseline_file name) in
      match Metrics_io.parse_file ~path with
      | Error e -> Error ("baseline " ^ e)
      | Ok base -> (
          match
            Metrics_io.compare_json ~tolerance:0.0 (s.project base)
              (s.project doc)
          with
          | [] -> Ok ()
          | diffs ->
              Error
                (Format.asprintf "@[<v>%d value(s) differ from %s:@,%a@]"
                   (List.length diffs) path
                   (Metrics_io.pp_diffs ?limit:None)
                   diffs)))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let gate ?(scenarios = all) ?(log = ignore) ~baselines ~out () =
  mkdir_p out;
  let jobs = Pool.default_jobs () in
  let failures = ref [] in
  let fail s reason = failures := (s.name, reason) :: !failures in
  let guard s what f =
    try f () with
    | Failure msg -> fail s (what ^ ": " ^ msg)
    | e -> fail s (what ^ ": " ^ Printexc.to_string e)
  in
  let run_one s =
    let o = s.run ~machine:Machine.quick ~jobs ~log in
    print_endline o.report;
    List.iter
      (fun (file, write) ->
        guard s file (fun () -> write (Filename.concat out file)))
      o.writers;
    List.iter (fun (name, check) -> guard s name check) o.checks;
    match (s.baseline, o.document) with
    | Some name, Some doc ->
        Metrics_io.write_json ~path:(Filename.concat out (baseline_file name)) doc;
        Result.iter_error (fail s) (compare_document s ~baselines doc)
    | _ -> ()
  in
  let bar = String.make 72 '=' in
  List.iter
    (fun s ->
      log (Printf.sprintf "=== %s: %s ===" s.name s.cells);
      Printf.printf "\n%s\n%s\n%s\n%!" bar s.name bar;
      guard s "run" (fun () -> run_one s))
    scenarios;
  let failures = List.rev !failures in
  Format.printf "@.@[<v>%t@]@." (fun fmt ->
      Report.table
        ~title:(Printf.sprintf "Gate (tolerance 0, baselines in %s)" baselines)
        ~header:[ "scenario"; "assertions"; "baseline"; "result" ]
        ~rows:
          (List.map
             (fun s ->
               [
                 s.name;
                 string_of_int (List.length s.assertions);
                 Option.fold ~none:"-" ~some:baseline_file s.baseline;
                 (if List.mem_assoc s.name failures then "FAIL" else "ok");
               ])
             scenarios)
        fmt ());
  List.iter (fun (name, why) -> Printf.printf "FAIL %s: %s\n" name why) failures;
  failures
