(* memhog — command-line front end to the reproduction.

   Subcommands:
     compile    run the compiler on a benchmark and dump analysis + code
     run        run one experiment and print every collected metric
     figures    regenerate the paper's tables and figures, the ablations
                and the extensions (ext-serve: KV-server tail latency and
                per-request blame beside a hog)
     report     render metrics JSON files as human-readable tables
     compare    diff two metrics JSON files
     top        replay a telemetry dump as a live terminal dashboard
     gate       run every scenario and compare against the baselines
*)

open Cmdliner
open Memhog_core
module VS = Memhog_vm.Vm_stats
module Time_ns = Memhog_sim.Time_ns
module Workload = Memhog_workloads.Workload

let machine_term =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Use the 1/8-scale machine instead of the Table 1 testbed.")
  in
  Term.(const (fun q -> if q then Machine.quick else Machine.paper) $ quick)

let workload_conv =
  let parse s =
    match Workload.find_opt s with
    | Some w -> Ok w
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown workload %S (valid: %s)" s
                (String.concat ", " Workload.names)))
  in
  Arg.conv (parse, fun fmt w -> Format.pp_print_string fmt w.Workload.w_name)

let workload_term =
  Arg.(
    value
    & pos 0 workload_conv (Workload.find "MATVEC")
    & info [] ~docv:"WORKLOAD" ~doc:"Benchmark name (EMBAR, MATVEC, BUK, CGM, MGRID, FFTPDE).")

let variant_conv =
  let parse = function
    | "O" | "o" -> Ok Experiment.O
    | "P" | "p" -> Ok Experiment.P
    | "R" | "r" -> Ok Experiment.R
    | "B" | "b" -> Ok Experiment.B
    | s -> Error (`Msg (Printf.sprintf "unknown variant %s (O, P, R or B)" s))
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (Experiment.variant_name v))

let chaos_conv =
  let parse s =
    match Memhog_sim.Chaos.parse s with
    | Ok _ -> Ok s
    | Error e -> Error (`Msg (Printf.sprintf "bad chaos spec: %s" e))
  in
  Arg.conv (parse, Format.pp_print_string)

(* Numeric option values, checked at parse time: a bad value is a usage
   error (exit 124), never a crash or a silent no-op deep inside a run. *)
let checked ~what ok of_string pp =
  let parse s =
    match of_string s with
    | Some v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, pp)

let positive_int =
  checked ~what:"a positive integer" (fun n -> n >= 1) int_of_string_opt
    Format.pp_print_int

let non_negative_float =
  checked ~what:"a finite number >= 0"
    (fun x -> Float.is_finite x && x >= 0.0)
    float_of_string_opt Format.pp_print_float

let positive_float =
  checked ~what:"a finite number > 0"
    (fun x -> Float.is_finite x && x > 0.0)
    float_of_string_opt Format.pp_print_float

(* Progress lines on stderr, stamped with the seconds since start; worker
   domains log too, so keep lines whole. *)
let log =
  let t0 = Unix.gettimeofday () and m = Mutex.create () in
  fun msg ->
    Mutex.protect m (fun () ->
        Printf.eprintf "  [%7.1fs] %s\n%!" (Unix.gettimeofday () -. t0) msg)

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compile_cmd =
  let variant =
    Arg.(
      value
      & opt variant_conv Experiment.R
      & info [ "variant"; "v" ] ~docv:"V" ~doc:"Variant to generate (O, P, R).")
  in
  let analysis_only =
    Arg.(value & flag & info [ "analysis" ] ~doc:"Print only the analysis.")
  in
  let run machine workload variant analysis_only =
    let prog, _ =
      workload.Workload.w_make
        ~mem_bytes:(Machine.mem_bytes machine)
        ~page_bytes:machine.Machine.m_config.Memhog_vm.Config.page_bytes
    in
    let target = Machine.compiler_target machine in
    Format.printf "=== source ===@.%a@.@." Memhog_compiler.Ir.pp_program prog;
    let ann = Memhog_compiler.Compile.analyze ~target prog in
    Format.printf "=== analysis ===@.%a@.@." Memhog_compiler.Analysis.pp ann;
    if not analysis_only then begin
      let pir_variant =
        match variant with
        | Experiment.O -> Memhog_compiler.Pir.V_original
        | Experiment.P -> Memhog_compiler.Pir.V_prefetch
        | Experiment.R | Experiment.B -> Memhog_compiler.Pir.V_release
      in
      let compiled =
        Memhog_compiler.Compile.compile ~target ~variant:pir_variant prog
      in
      Format.printf "=== generated code ===@.%a@." Memhog_compiler.Pir.pp compiled
    end;
    0
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Run the compiler pass on a benchmark and dump its output.")
    Term.(const run $ machine_term $ workload_term $ variant $ analysis_only)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let variant =
    Arg.(
      value
      & opt variant_conv Experiment.R
      & info [ "variant"; "v" ] ~docv:"V" ~doc:"Variant to run (O, P, R, B).")
  in
  let interactive =
    Arg.(
      value
      & opt (some non_negative_float) None
      & info [ "interactive" ] ~docv:"SLEEP_S"
          ~doc:"Co-run the section-1.1 interactive task with this sleep time.")
  in
  let iterations =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "iterations"; "n" ] ~docv:"N" ~doc:"Main-computation passes.")
  in
  let conservative =
    Arg.(
      value & flag
      & info [ "conservative" ]
          ~doc:"Use the idealized section-2.3.2 insertion rule.")
  in
  let telemetry =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"DIR"
          ~doc:
            "Register the full telemetry probe set (VM, disk, tiers, \
             runtime, server) and the default alert rules, print every \
             series as a sparkline with the alert timeline, and dump the \
             registry into $(docv): $(b,openmetrics.txt) (text \
             exposition), $(b,series.csv) and $(b,alerts.csv) — the \
             files $(b,memhog top) replays.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a structured event trace (faults, prefetches, releases, \
             daemon steals, rescues) and write it as Chrome trace_event \
             JSON, loadable in chrome://tracing or Perfetto.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the derived metrics (service-time histograms, Figure 7 \
             breakdown, release accuracy, telemetry ranges) as canonical \
             JSON, readable by $(b,memhog report) and $(b,memhog compare).")
  in
  let chaos =
    Arg.(
      value
      & opt (some chaos_conv) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Inject faults from this plan (e.g. \
             $(b,disk-fault@10s-20s:p=0.5;pressure@30s-31s:pages=128)).  \
             The plan is seeded with the machine seed, so repeated runs \
             inject the identical schedule.  Also enables the run-time \
             layer's graceful-degradation governor.")
  in
  let serve_rate =
    Arg.(
      value
      & opt (some positive_float) None
      & info [ "serve" ] ~docv:"RPS"
          ~doc:
            "Co-run the open-loop KVSERVE server at $(docv) requests/sec \
             next to the hog and report its tail latency (responses \
             measured from arrival).")
  in
  let tiers_conv =
    let parse s =
      match Memhog_vm.Tiers.spec_of_string s with
      | Ok _ -> Ok s
      | Error e -> Error (`Msg (Printf.sprintf "bad tiers spec: %s" e))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let tiers =
    Arg.(
      value
      & opt (some tiers_conv) None
      & info [ "tiers" ] ~docv:"SPEC"
          ~doc:
            "Install a tiered backing store over the swap volume (e.g. \
             $(b,far+zram+route:thresh=1)): released pages gain fast-tier \
             copies routed by their Eq. 2 priorities, with a circuit \
             breaker failing demotions over to the durable swap copy when \
             the far tier's health degrades.  Clauses: $(b,far), $(b,zram) \
             and $(b,route), each taking $(b,:k=v,...) parameters.")
  in
  let run machine workload variant interactive iterations conservative telemetry
      trace metrics chaos serve_rate tiers =
    let interactive_sleep = Option.map Time_ns.of_sec_f interactive in
    let min_sim_time =
      match interactive_sleep with
      | Some s -> max (Time_ns.sec 45) ((8 * s) + Time_ns.sec 20)
      | None -> 0
    in
    let trace_buf = Option.map (fun _ -> Memhog_sim.Trace.create ()) trace in
    let serve =
      Option.map
        (fun rate_rps -> Experiment.serve_cfg ~machine ~rate_rps ())
        serve_rate
    in
    let r =
      Experiment.run
        (Experiment.setup ~machine ?interactive_sleep ?iterations ~min_sim_time
           ~conservative ?trace:trace_buf ?chaos ?serve ?tiers
           ~telemetry:(telemetry <> None) ~workload ~variant ())
    in
    let b = r.Experiment.r_breakdown in
    Format.printf "workload:   %s  variant: %s@." r.Experiment.r_workload
      (Experiment.variant_name r.Experiment.r_variant);
    Format.printf "elapsed:    %s over %d passes (%s per pass)@."
      (Time_ns.to_string r.Experiment.r_elapsed)
      r.Experiment.r_iterations
      (Time_ns.to_string (r.Experiment.r_elapsed / r.Experiment.r_iterations));
    Format.printf "breakdown:  user %s | system %s | io %s | resource %s@."
      (Time_ns.to_string b.Experiment.b_user)
      (Time_ns.to_string b.Experiment.b_system)
      (Time_ns.to_string b.Experiment.b_io_stall)
      (Time_ns.to_string b.Experiment.b_resource_stall);
    let s = r.Experiment.r_app_stats in
    Format.printf "faults:     hard %d | soft %d (daemon %d) | validations %d@."
      s.VS.hard_faults s.VS.soft_faults s.VS.soft_faults_daemon
      s.VS.validation_faults;
    Format.printf "freed:      by daemon %d | by release %d | rescued %d+%d@."
      s.VS.freed_by_daemon s.VS.freed_by_releaser s.VS.rescued_daemon
      s.VS.rescued_releaser;
    Format.printf "daemon:     activations %d | pages stolen %d | invalidations %d@."
      r.Experiment.r_global.VS.daemon_activations
      r.Experiment.r_global.VS.daemon_pages_stolen
      r.Experiment.r_global.VS.daemon_invalidations;
    Format.printf "swap:       %d reads | %d writes@." r.Experiment.r_swap_reads
      r.Experiment.r_swap_writes;
    (match r.Experiment.r_runtime with
    | Some rt ->
        Format.printf
          "runtime:    prefetch req %d (filtered %d) | release req %d (same \
           %d, gone %d) | issued %d | buffered %d | stale dropped %d@."
          rt.Memhog_runtime.Runtime.rt_prefetch_requests
          rt.Memhog_runtime.Runtime.rt_prefetch_filtered
          rt.Memhog_runtime.Runtime.rt_release_requests
          rt.Memhog_runtime.Runtime.rt_release_filtered_same
          rt.Memhog_runtime.Runtime.rt_release_filtered_bitmap
          rt.Memhog_runtime.Runtime.rt_release_issued
          rt.Memhog_runtime.Runtime.rt_release_buffered
          rt.Memhog_runtime.Runtime.rt_release_stale_dropped
    | None -> ());
    (match r.Experiment.r_chaos with
    | Some cs ->
        Format.printf "chaos:      %a | disk timeouts %d@."
          Memhog_sim.Chaos.pp_stats cs r.Experiment.r_disk_timeouts;
        (match r.Experiment.r_runtime with
        | Some rt ->
            Format.printf
              "governor:   level %d | degrades %d | recoveries %d | \
               suppressed %d | os prefetch done %d dropped %d@."
              rt.Memhog_runtime.Runtime.rt_gov_level
              rt.Memhog_runtime.Runtime.rt_gov_degrades
              rt.Memhog_runtime.Runtime.rt_gov_recoveries
              rt.Memhog_runtime.Runtime.rt_gov_suppressed
              rt.Memhog_runtime.Runtime.rt_prefetch_os_done
              rt.Memhog_runtime.Runtime.rt_prefetch_os_dropped
        | None -> ())
    | None -> ());
    (match r.Experiment.r_tiers with
    | Some ts ->
        let module Tiers = Memhog_vm.Tiers in
        List.iter
          (fun (row : Tiers.tier_summary) ->
            Format.printf
              "tier %-5s %d reads | %d writes | %d timeouts (%d retries) | \
               %d rejects | %d failovers | %d breaker flips@."
              (Tiers.tier_name row.Tiers.ts_tier)
              row.Tiers.ts_reads row.Tiers.ts_writes row.Tiers.ts_timeouts
              row.Tiers.ts_retries row.Tiers.ts_rejects row.Tiers.ts_failovers
              row.Tiers.ts_breaker_transitions)
          ts.Tiers.s_tiers;
        Format.printf
          "tiers:      rescued %d | placed %d | breaker %s | zram ampl %.2f@."
          ts.Tiers.s_rescues ts.Tiers.s_placed
          (match ts.Tiers.s_breaker_state with
          | 0 -> "closed"
          | 1 -> "half-open"
          | _ -> "open")
          ts.Tiers.s_zram_amplification
    | None -> ());
    (match r.Experiment.r_serving with
    | Some s ->
        let module Server = Memhog_exec.Server in
        let h = s.Server.sm_hist in
        let pct p = Time_ns.to_string (Memhog_sim.Histogram.percentile h p) in
        Format.printf
          "serving:    %g rps offered | %d arrived, %d served (%d recorded) \
           | queue max %d@."
          s.Server.sm_offered_rps s.Server.sm_arrived s.Server.sm_completed
          s.Server.sm_recorded s.Server.sm_max_queue;
        Format.printf
          "  response: p50 %s | p99 %s | p999 %s | max %s | SLO(%s) %.1f%%@."
          (pct 50.0) (pct 99.0) (pct 99.9)
          (Time_ns.to_string
             (Option.value (Memhog_sim.Histogram.max_value h) ~default:0))
          (Time_ns.to_string s.Server.sm_slo)
          (100.0 *. Server.slo_attainment s)
    | None -> ());
    (match r.Experiment.r_interactive with
    | Some i ->
        Format.printf
          "interactive: response %s (alone %s) | hard faults per sweep %s | \
           %d sweeps@."
          (match i.Experiment.is_avg_response with
          | Some t -> Time_ns.to_string t
          | None -> "-")
          (Time_ns.to_string i.Experiment.is_alone_response)
          (match i.Experiment.is_avg_hard_faults with
          | Some f -> Printf.sprintf "%.1f" f
          | None -> "-")
          i.Experiment.is_sweeps
    | None -> ());
    (match telemetry with
    | Some dir ->
        Format.printf "%a" Memhog_sim.Telemetry.pp r.Experiment.r_telemetry;
        Trace_export.write_telemetry r.Experiment.r_telemetry ~dir;
        Format.printf
          "telemetry written to %s (openmetrics.txt, series.csv, \
           alerts.csv); replay with: memhog top %s@."
          dir dir
    | None -> ());
    (match trace with
    | Some path ->
        Trace_export.write_chrome_json r.Experiment.r_trace ~path;
        print_string (Trace_export.summary r.Experiment.r_trace);
        Format.printf "trace written to %s@." path
    | None -> ());
    (match metrics with
    | Some path ->
        let label =
          Printf.sprintf "%s %s/%s" machine.Machine.m_name
            r.Experiment.r_workload
            (Experiment.variant_name r.Experiment.r_variant)
        in
        Metrics_io.write_json ~path (Metrics.of_results ~label [ r ]);
        Format.printf "metrics written to %s@." path
    | None -> ());
    Format.printf "invariants: %s@."
      (if r.Experiment.r_invariants_ok then "ok" else "VIOLATED");
    if r.Experiment.r_invariants_ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment and print every metric.")
    Term.(
      const run $ machine_term $ workload_term $ variant $ interactive
      $ iterations $ conservative $ telemetry $ trace $ metrics $ chaos
      $ serve_rate $ tiers)

(* ------------------------------------------------------------------ *)
(* figures                                                             *)
(* ------------------------------------------------------------------ *)

(* The paper's experiments.  Most figures format one shared matrix (every
   workload x O/P/R/B beside the 5 s interactive task); the rest run their
   own sweeps.  [chaos] reaches the matrix and the ext-serve cells. *)
let figures ?chaos () =
  [
    ("table1", `Own (fun ~machine ~jobs:_ ~log:_ -> Figures.table1 ~machine ()));
    ("table2", `Own (fun ~machine ~jobs:_ ~log:_ -> Figures.table2 ~machine ()));
    ("fig1", `Own (fun ~machine ~jobs ~log -> Figures.fig1 ~machine ~jobs ~log ()));
    ("fig7", `Matrix Figures.fig7);
    ("fig8", `Matrix Figures.fig8);
    ("table3", `Matrix Figures.table3);
    ("fig9", `Matrix Figures.fig9);
    ("fig10a", `Own (fun ~machine ~jobs ~log -> Figures.fig10a ~machine ~jobs ~log ()));
    ("fig10b", `Matrix Figures.fig10b);
    ("fig10c", `Matrix Figures.fig10c);
    ( "ablation-batch",
      `Own (fun ~machine ~jobs ~log -> Figures.ablation_batch ~machine ~jobs ~log ()) );
    ( "ablation-hwbits",
      `Own (fun ~machine ~jobs ~log -> Figures.ablation_hwbits ~machine ~jobs ~log ()) );
    ( "ablation-conservative",
      `Own
        (fun ~machine ~jobs ~log ->
          Figures.ablation_conservative ~machine ~jobs ~log ()) );
    ( "ablation-rescue",
      `Own (fun ~machine ~jobs ~log -> Figures.ablation_rescue ~machine ~jobs ~log ()) );
    ( "ablation-drop",
      `Own (fun ~machine ~jobs ~log -> Figures.ablation_drop ~machine ~jobs ~log ()) );
    ( "ablation-tlb",
      `Own (fun ~machine ~jobs ~log -> Figures.ablation_tlb ~machine ~jobs ~log ()) );
    ( "ext-freemem",
      `Own (fun ~machine ~jobs ~log -> Figures.ext_freemem ~machine ~jobs ~log ()) );
    ( "ext-reactive",
      `Own (fun ~machine ~jobs ~log -> Figures.ext_reactive ~machine ~jobs ~log ()) );
    ( "ext-two-hogs",
      `Own (fun ~machine ~jobs ~log -> Figures.ext_two_hogs ~machine ~jobs ~log ()) );
    ( "ext-serve",
      `Own (fun ~machine ~jobs ~log -> Figures.ext_serve ~machine ~jobs ~log ?chaos ()) );
  ]

let figures_cmd =
  let jobs =
    Arg.(
      value
      & opt positive_int (Pool.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Run the independent simulations on $(docv) worker domains.  \
             Simulated results are bit-identical to --jobs 1; only wall-clock \
             numbers change.")
  in
  let ids =
    Arg.(
      value
      & pos_all (enum (List.map (fun (id, _) -> (id, id)) (figures ()))) []
      & info [] ~docv:"ID"
          ~doc:"Experiments to run, in order (default: all of them).")
  in
  let trace =
    Arg.(
      value
      & opt (some dir) None
      & info [ "trace" ] ~docv:"DIR"
          ~doc:
            "Also write one Chrome trace_event JSON per matrix cell \
             ($(b,WORKLOAD-VARIANT.trace.json)) into the existing $(docv).")
  in
  let chaos =
    Arg.(
      value
      & opt (some chaos_conv) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:"Inject this fault plan into every matrix and ext-serve cell.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the matrix's derived metrics as canonical JSON (needs a \
             matrix figure: fig7, fig8, table3, fig9, fig10b or fig10c).")
  in
  let run machine jobs trace_dir chaos metrics ids =
    let figures = figures ?chaos () in
    let ids = if ids = [] then List.map fst figures else ids in
    let uses_matrix id =
      match List.assoc id figures with `Matrix _ -> true | `Own _ -> false
    in
    if metrics <> None && not (List.exists uses_matrix ids) then begin
      Format.eprintf "memhog figures: --metrics needs a matrix figure@.";
      2
    end
    else begin
      let matrix =
        lazy
          (log
             (Printf.sprintf "building the experiment matrix (%d jobs)" jobs);
           Figures.run_matrix ~machine ~jobs ~log ?trace_dir ?chaos ())
      in
      log (Printf.sprintf "machine: %s | jobs: %d" machine.Machine.m_name jobs);
      List.iter
        (fun id ->
          log (Printf.sprintf "=== %s ===" id);
          let bar = String.make 72 '=' in
          Printf.printf "\n%s\n%s\n%s\n%!" bar id bar;
          print_endline
            (match List.assoc id figures with
            | `Matrix f -> f (Lazy.force matrix)
            | `Own f -> f ~machine ~jobs ~log))
        ids;
      Option.iter
        (fun path ->
          Metrics_io.write_json ~path (Metrics.of_matrix (Lazy.force matrix));
          log ("wrote " ^ path))
        metrics;
      0
    end
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "Regenerate the paper's tables and figures, the ablations and the \
          extensions, printed in paper order.  Full scale takes minutes per \
          figure; $(b,--quick) runs the 1/8-scale machine.")
    Term.(
      const run $ machine_term $ jobs $ trace
      $ chaos $ metrics $ ids)

(* ------------------------------------------------------------------ *)
(* report / compare                                                    *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Metrics JSON files to render.")
  in
  let run files =
    let rc = ref 0 in
    List.iter
      (fun path ->
        match Metrics_io.load_file ~path with
        | Error e ->
            Format.eprintf "memhog report: %s@." e;
            rc := 1
        | Ok j -> (
            match Metrics.render j with
            | Ok text -> print_string text
            | Error e ->
                Format.eprintf "memhog report: %s: %s@." path e;
                rc := 1))
      files;
    !rc
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render metrics JSON files (written by $(b,--metrics) or \
          $(b,memhog gate)) as human-readable tables.")
    Term.(const run $ files)

let compare_cmd =
  let baseline =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline metrics JSON file.")
  in
  let current =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CURRENT" ~doc:"Current metrics JSON file.")
  in
  let tolerance =
    Arg.(
      value
      & opt non_negative_float 0.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:
            "Allowed relative drift per numeric field, in percent.  0 \
             (default) demands byte-identical numbers — the right setting \
             for deterministic same-seed runs.")
  in
  let run baseline current tolerance =
    match (Metrics_io.load_file ~path:baseline, Metrics_io.load_file ~path:current) with
    | Error e, _ | _, Error e ->
        Format.eprintf "memhog compare: %s@." e;
        2
    | Ok b, Ok c -> (
        match Metrics_io.compare_json ~tolerance b c with
        | [] ->
            Format.printf "metrics match (%s vs %s, tolerance %g%%)@." baseline
              current tolerance;
            0
        | diffs ->
            Format.printf "@[<v>%d metric(s) drifted beyond %g%% (%s vs %s):@,%a@]@."
              (List.length diffs) tolerance baseline current
              (Metrics_io.pp_diffs ?limit:None)
              diffs;
            1)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two metrics JSON files field by field; exit non-zero when \
          any number drifts beyond the tolerance.  ($(b,memhog gate) runs \
          the same comparison at tolerance 0 against every committed \
          baseline.)")
    Term.(const run $ baseline $ current $ tolerance)

(* ------------------------------------------------------------------ *)
(* top — replay a telemetry dump as a live terminal dashboard          *)
(* ------------------------------------------------------------------ *)

let top_cmd =
  let module Telemetry = Memhog_sim.Telemetry in
  (* series.csv rows ([series,time_ns,value]) grouped by name in
     first-appearance order; each group's samples stay in file (= time)
     order. *)
  let read_series path =
    let order = ref [] and index = Hashtbl.create 16 in
    In_channel.with_open_bin path (fun ic ->
        let rec loop first =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
              (if not first then
                 match String.split_on_char ',' line with
                 | [ name; time; value ] -> (
                     match (int_of_string_opt time, float_of_string_opt value) with
                     | Some t, Some v ->
                         let q =
                           match Hashtbl.find_opt index name with
                           | Some q -> q
                           | None ->
                               let q = Queue.create () in
                               Hashtbl.add index name q;
                               order := name :: !order;
                               q
                         in
                         Queue.add (t, v) q
                     | _ -> ())
                 | _ -> ());
              loop false
        in
        loop true);
    List.rev_map
      (fun name -> (name, List.of_seq (Queue.to_seq (Hashtbl.find index name))))
      !order
  in
  (* alerts.csv rows ([time_ns,rule,event,value]), chronological. *)
  let read_alerts path =
    if not (Sys.file_exists path) then []
    else
      In_channel.with_open_bin path (fun ic ->
          let rec loop first acc =
            match In_channel.input_line ic with
            | None -> List.rev acc
            | Some line ->
                let acc =
                  if first then acc
                  else
                    match String.split_on_char ',' line with
                    | [ time; rule; event; value ] -> (
                        match
                          (int_of_string_opt time, float_of_string_opt value)
                        with
                        | Some t, Some v -> (t, rule, event = "fire", v) :: acc
                        | _ -> acc)
                    | _ -> acc
                in
                loop false acc
          in
          loop true [])
  in
  let render_frame ~width ~now series alerts =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf "memhog top — t = %s\n\n" (Time_ns.to_string now));
    List.iter
      (fun (name, samples) ->
        let visible = List.filter (fun (t, _) -> t <= now) samples in
        let last =
          match List.rev visible with (_, v) :: _ -> v | [] -> 0.0
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-20s %12.6g  %s\n" name last
             (Telemetry.sparkline_of ~width visible)))
      series;
    let active =
      List.fold_left
        (fun acc (t, rule, fired, v) ->
          if t > now then acc
          else
            let acc = List.filter (fun (r, _, _) -> r <> rule) acc in
            if fired then (rule, t, v) :: acc else acc)
        [] alerts
    in
    Buffer.add_string buf "\n  alerts:\n";
    if active = [] then Buffer.add_string buf "    (none active)\n"
    else
      List.iter
        (fun (rule, t, v) ->
          Buffer.add_string buf
            (Printf.sprintf "    FIRING %-24s since %s (value %.6g)\n" rule
               (Time_ns.to_string t) v))
        (List.rev active);
    Buffer.contents buf
  in
  let dir =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:"Telemetry directory written by $(b,memhog run --telemetry).")
  in
  let speed =
    Arg.(
      value
      & opt non_negative_float 4.0
      & info [ "speed" ] ~docv:"X"
          ~doc:
            "Playback rate: $(docv) seconds of simulated time per wall \
             second.  0 renders the final frame only (no animation, no \
             escape codes) — the scriptable mode.  A rate so low that one \
             frame would wait over an hour is refused.")
  in
  let width =
    Arg.(
      value
      & opt positive_int 60
      & info [ "width" ] ~docv:"COLS" ~doc:"Sparkline width in columns.")
  in
  let run dir speed width =
    let series = read_series (Filename.concat dir "series.csv") in
    let alerts = read_alerts (Filename.concat dir "alerts.csv") in
    if series = [] then begin
      Format.eprintf "memhog top: no samples in %s@."
        (Filename.concat dir "series.csv");
      1
    end
    else begin
      let t_end =
        List.fold_left
          (fun acc (_, samples) ->
            List.fold_left (fun acc (t, _) -> max acc t) acc samples)
          0 series
      in
      let dt = max 1 (t_end / 120) in
      let frame_s = Time_ns.to_sec_f dt /. speed in
      if speed = 0.0 then begin
        print_string (render_frame ~width ~now:t_end series alerts);
        0
      end
      else if frame_s > 3600.0 then begin
        Format.eprintf
          "memhog top: --speed %g waits %g s per frame (over an hour)@." speed
          frame_s;
        124
      end
      else begin
        (* Clear once, then repaint from the home position each frame —
           flicker-free on any VT100-compatible terminal. *)
        print_string "\027[2J";
        let rec play now =
          let now = min now t_end in
          print_string "\027[H";
          print_string (render_frame ~width ~now series alerts);
          print_string "\027[J";
          flush stdout;
          if now < t_end then begin
            Unix.sleepf frame_s;
            play (now + dt)
          end
        in
        play dt;
        print_newline ();
        0
      end
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Replay a telemetry dump (written by $(b,memhog run --telemetry \
          DIR)) as a live terminal dashboard: one sparkline per series and \
          an active-alert panel, animated over simulated time.")
    Term.(const run $ dir $ speed $ width)

(* ------------------------------------------------------------------ *)
(* gate                                                                *)
(* ------------------------------------------------------------------ *)

let gate_cmd =
  let baselines =
    Arg.(
      value
      & opt string "bench"
      & info [ "baselines" ] ~docv:"DIR"
          ~doc:"Directory holding the committed NAME_metrics.json baselines.")
  in
  let out =
    Arg.(
      value
      & opt string "gate-out"
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:
            "Directory (created if needed) for the current documents and \
             artifacts.  Regenerate the baselines on purpose with \
             $(b,cp) $(docv)$(b,/*_metrics.json bench/).")
  in
  let run baselines out =
    match Scenario.gate ~log ~baselines ~out () with [] -> 0 | _ -> 1
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:
         "The regression gate: run every scenario (smoke, chaos, audit, \
          serve, tiers, obs, perf) on the quick machine, check its built-in \
          assertions, and compare its metrics document against the \
          committed baseline at tolerance 0.  Exits non-zero on any diff, \
          missing baseline or failed assertion.")
    Term.(const run $ baselines $ out)

let () =
  let doc =
    "compiler-inserted releases for out-of-core applications (OSDI 2000 \
     reproduction)"
  in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "memhog" ~version:"1.0.0" ~doc)
          [
            compile_cmd; run_cmd; figures_cmd; report_cmd; compare_cmd;
            top_cmd; gate_cmd;
          ]))
