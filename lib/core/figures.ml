open Memhog_sim
module E = Experiment
module VS = Memhog_vm.Vm_stats
module Workload = Memhog_workloads.Workload
module Compile = Memhog_compiler.Compile
module Pir = Memhog_compiler.Pir
module Analysis = Memhog_compiler.Analysis

type cell_timing = { ct_label : string; ct_wall_s : float }

type matrix = {
  mx_machine : Machine.t;
  mx_sleep : Time_ns.t;
  mx_results : (string * (E.variant * E.result) list) list;
  mx_alone : E.interactive_summary;
  mx_jobs : int;
  mx_wall_s : float;
  mx_cells : cell_timing list;
}

let matrix_results m =
  List.concat_map (fun (_, per_variant) -> List.map snd per_variant) m.mx_results

let no_log _ = ()

(* Jobs run on worker domains; serialize calls into the caller's logger. *)
let locked_log log =
  let m = Mutex.create () in
  fun s ->
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> log s)

(* Run each spec as an independent pool job and keep per-cell wall-clock.
   Results come back in input order whatever the schedule, and every
   simulation owns its engine/OS/RNG, so the output is bit-identical to the
   serial run. *)
let timed_pmap ~jobs ~label ~run specs =
  Pool.map ~jobs
    (fun spec ->
      let t0 = Unix.gettimeofday () in
      let r = run spec in
      ({ ct_label = label spec; ct_wall_s = Unix.gettimeofday () -. t0 }, r))
    specs

let pmap ~jobs run specs = Pool.map ~jobs run specs

let sweep_min_time ~sleep = max (Time_ns.sec 45) ((8 * sleep) + Time_ns.sec 20)

type matrix_cell = Cell_run of string * E.variant | Cell_alone

let run_matrix ?(machine = Machine.paper) ?(sleep = Time_ns.sec 5)
    ?(workloads = Workload.names) ?(jobs = 1) ?(log = no_log) ?trace_dir ?chaos
    () =
  let log = locked_log log in
  let min_sim_time = sweep_min_time ~sleep in
  let t_start = Unix.gettimeofday () in
  let cells =
    List.concat_map
      (fun name -> List.map (fun v -> Cell_run (name, v)) E.all_variants)
      workloads
    @ [ Cell_alone ]
  in
  let label = function
    | Cell_run (name, v) -> Printf.sprintf "%s/%s" name (E.variant_name v)
    | Cell_alone -> "interactive-alone"
  in
  let run = function
    | Cell_run (name, v) ->
        log (Printf.sprintf "running %s/%s ..." name (E.variant_name v));
        let wl = Workload.find name in
        let trace =
          Option.map (fun _ -> Memhog_sim.Trace.create ()) trace_dir
        in
        let r =
          E.run
            (E.setup ~machine ~interactive_sleep:sleep ~min_sim_time ?trace
               ?chaos ~workload:wl ~variant:v ())
        in
        (match trace_dir with
        | Some dir ->
            let file =
              Filename.concat dir
                (Printf.sprintf "%s-%s.trace.json" name (E.variant_name v))
            in
            Trace_export.write_chrome_json r.E.r_trace ~path:file;
            log (Printf.sprintf "wrote %s" file)
        | None -> ());
        `Run r
    | Cell_alone ->
        log "running interactive task alone ...";
        `Alone (E.run_interactive_alone ~machine ~sleep ~duration:min_sim_time ())
  in
  let outcomes = timed_pmap ~jobs ~label ~run cells in
  let tagged = List.combine cells outcomes in
  let results =
    List.map
      (fun name ->
        ( name,
          List.filter_map
            (function
              | Cell_run (n, v), (_, `Run r) when n = name -> Some (v, r)
              | _ -> None)
            tagged ))
      workloads
  in
  let alone =
    match
      List.find_map
        (function Cell_alone, (_, `Alone a) -> Some a | _ -> None)
        tagged
    with
    | Some a -> a
    | None -> assert false
  in
  {
    mx_machine = machine;
    mx_sleep = sleep;
    mx_results = results;
    mx_alone = alone;
    mx_jobs = jobs;
    mx_wall_s = Unix.gettimeofday () -. t_start;
    mx_cells = List.map fst outcomes;
  }

let render f = Format.asprintf "@[<v>%t@]" f

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 ?(machine = Machine.paper) () =
  render (fun fmt ->
      Format.fprintf fmt "Table 1: hardware characteristics@,%a@," Machine.pp
        machine)

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 ?(machine = Machine.paper) () =
  let page_bytes = machine.Machine.m_config.Memhog_vm.Config.page_bytes in
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let bytes =
          Workload.data_set_bytes w ~mem_bytes:(Machine.mem_bytes machine)
            ~page_bytes
        in
        let prog, _ =
          w.Workload.w_make ~mem_bytes:(Machine.mem_bytes machine) ~page_bytes
        in
        let ann = Compile.analyze ~target:(Machine.compiler_target machine) prog in
        let s = ann.Analysis.ap_stats in
        [
          w.Workload.w_name;
          w.Workload.w_description;
          Printf.sprintf "%d MB" (bytes / (1024 * 1024));
          w.Workload.w_traits;
          string_of_int s.Analysis.st_direct_refs;
          string_of_int s.Analysis.st_indirect_refs;
          string_of_int s.Analysis.st_unknown_bound_loops;
        ])
      Workload.all
  in
  render (fun fmt ->
      Report.table ~title:"Table 2: benchmark characteristics"
        ~header:
          [ "name"; "description"; "data set"; "traits"; "direct"; "indirect"; "unk-loops" ]
        ~rows fmt ())

(* ------------------------------------------------------------------ *)
(* Response-time sweeps (Figures 1 and 10a)                            *)
(* ------------------------------------------------------------------ *)

let default_sleeps = [ 0.0; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 30.0 ]

let response_sweep ~machine ~sleeps_s ~variants ~jobs ~log =
  let wl = Workload.find "MATVEC" in
  let specs =
    List.concat_map
      (fun s -> (s, None) :: List.map (fun v -> (s, Some v)) variants)
      sleeps_s
  in
  let run (s, which) =
    let sleep = Time_ns.of_sec_f s in
    let min_sim_time = sweep_min_time ~sleep in
    match which with
    | None ->
        log (Printf.sprintf "sleep %.1fs ..." s);
        `Alone (E.run_interactive_alone ~machine ~sleep ~duration:min_sim_time ())
    | Some v ->
        `Run
          ( v,
            E.run
              (E.setup ~machine ~interactive_sleep:sleep ~min_sim_time
                 ~workload:wl ~variant:v ()) )
  in
  let tagged = List.combine specs (pmap ~jobs run specs) in
  List.map
    (fun s ->
      let alone =
        match
          List.find_map
            (function (s', None), `Alone a when s' = s -> Some a | _ -> None)
            tagged
        with
        | Some a -> a
        | None -> assert false
      in
      let per_variant =
        List.filter_map
          (function (s', Some _), `Run (v, r) when s' = s -> Some (v, r) | _ -> None)
          tagged
      in
      (s, alone, per_variant))
    sleeps_s

let response_rows sweep =
  List.map
    (fun (s, (alone : E.interactive_summary), per_variant) ->
      Printf.sprintf "%.1f" s
      :: Report.ns_opt alone.E.is_avg_response
      :: List.map
           (fun (_, (r : E.result)) ->
             match r.E.r_interactive with
             | Some i -> Report.ns_opt i.E.is_avg_response
             | None -> "-")
           per_variant)
    sweep

let fig1 ?(machine = Machine.paper) ?(sleeps_s = default_sleeps) ?(jobs = 1)
    ?(log = no_log) () =
  let log = locked_log log in
  let sweep = response_sweep ~machine ~sleeps_s ~variants:[ E.O; E.P ] ~jobs ~log in
  render (fun fmt ->
      Report.table
        ~title:
          "Figure 1: interactive response time vs sleep time (MATVEC 400MB \
           co-running)"
        ~header:[ "sleep (s)"; "alone"; "w/ original"; "w/ prefetching" ]
        ~rows:(response_rows sweep) fmt ())

let fig10a ?(machine = Machine.paper) ?(sleeps_s = default_sleeps) ?(jobs = 1)
    ?(log = no_log) () =
  let log = locked_log log in
  let sweep =
    response_sweep ~machine ~sleeps_s ~variants:E.all_variants ~jobs ~log
  in
  render (fun fmt ->
      Report.table
        ~title:"Figure 10(a): interactive response vs sleep time (MATVEC)"
        ~header:[ "sleep (s)"; "alone"; "O"; "P"; "R"; "B" ]
        ~rows:(response_rows sweep) fmt ())

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let fig7 (m : matrix) =
  render (fun fmt ->
      Format.fprintf fmt
        "Figure 7: execution time of the out-of-core applications, \
         normalized to O@,(per-pass components as fractions of the O total; \
         runs repeat the main@,computation for the interactive task's \
         benefit, so times are divided by@,the pass count)@,";
      List.iter
        (fun (name, per_variant) ->
          let per_iter (r : E.result) x =
            float_of_int x /. float_of_int r.E.r_iterations
          in
          let o_total =
            match List.assoc_opt E.O per_variant with
            | Some r -> per_iter r (E.breakdown_total r.E.r_breakdown)
            | None -> 1.0
          in
          let rows =
            List.map
              (fun (v, (r : E.result)) ->
                let b = r.E.r_breakdown in
                let f x = Report.ratio (per_iter r x /. o_total) in
                [
                  E.variant_name v;
                  f b.E.b_user;
                  f b.E.b_system;
                  f b.E.b_resource_stall;
                  f b.E.b_io_stall;
                  f (E.breakdown_total b);
                  Report.ns (r.E.r_elapsed / r.E.r_iterations);
                  string_of_int r.E.r_iterations;
                ])
              per_variant
          in
          Report.table ~title:name
            ~header:
              [
                "variant"; "user"; "system"; "resource"; "io"; "total";
                "per-pass"; "passes";
              ]
            ~rows fmt ();
          Format.fprintf fmt "@,")
        m.mx_results)

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)
(* ------------------------------------------------------------------ *)

let fig8 (m : matrix) =
  let rows =
    List.map
      (fun (name, per_variant) ->
        name
        :: List.map
             (fun v ->
               match List.assoc_opt v per_variant with
               | Some r ->
                   Report.count
                     (r.E.r_app_stats.VS.soft_faults_daemon
                     / max 1 r.E.r_iterations)
               | None -> "-")
             E.all_variants)
      m.mx_results
  in
  render (fun fmt ->
      Report.table
        ~title:
          "Figure 8: soft page faults induced by the paging daemon's \
           invalidations (per pass)"
        ~header:[ "benchmark"; "O"; "P"; "R"; "B" ]
        ~rows fmt ())

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let table3 (m : matrix) =
  let rows =
    List.filter_map
      (fun (name, per_variant) ->
        match (List.assoc_opt E.O per_variant, List.assoc_opt E.R per_variant) with
        | Some o, Some r ->
            Some
              [
                name;
                Report.count o.E.r_global.VS.daemon_activations;
                Report.count o.E.r_global.VS.daemon_pages_stolen;
                Report.count r.E.r_global.VS.daemon_activations;
                Report.count r.E.r_global.VS.daemon_pages_stolen;
                Report.count r.E.r_app_stats.VS.freed_by_releaser;
              ]
        | _ -> None)
      m.mx_results
  in
  render (fun fmt ->
      Report.table
        ~title:
          "Table 3: page reclamation activity (original vs \
           prefetch+release)"
        ~header:
          [
            "benchmark";
            "O activations";
            "O stolen";
            "R activations";
            "R stolen";
            "R released";
          ]
        ~rows fmt ())

(* ------------------------------------------------------------------ *)
(* Figure 9                                                            *)
(* ------------------------------------------------------------------ *)

let fig9 (m : matrix) =
  let rows =
    List.concat_map
      (fun (name, per_variant) ->
        List.map
          (fun (v, (r : E.result)) ->
            let s = r.E.r_app_stats in
            let freed_d = s.VS.freed_by_daemon and freed_r = s.VS.freed_by_releaser in
            let total = max 1 (freed_d + freed_r) in
            let frac a b = Report.pct (float_of_int a /. float_of_int (max 1 b)) in
            [
              Printf.sprintf "%s/%s" name (E.variant_name v);
              Report.count freed_d;
              Report.count freed_r;
              frac freed_d total;
              frac s.VS.rescued_daemon freed_d;
              frac s.VS.rescued_releaser freed_r;
            ])
          per_variant)
      m.mx_results
  in
  render (fun fmt ->
      Report.table
        ~title:"Figure 9: outcomes of freed pages (out-of-core application)"
        ~header:
          [
            "run";
            "freed by daemon";
            "freed by release";
            "daemon share";
            "rescued (daemon)";
            "rescued (release)";
          ]
        ~rows fmt ())

(* ------------------------------------------------------------------ *)
(* Figures 10b, 10c                                                    *)
(* ------------------------------------------------------------------ *)

let interactive_cell ~alone (r : E.result) f =
  match r.E.r_interactive with Some i -> f i alone | None -> "-"

let fig10b (m : matrix) =
  let alone = m.mx_alone in
  let alone_resp =
    match alone.E.is_avg_response with
    | Some t -> float_of_int t
    | None -> float_of_int alone.E.is_alone_response
  in
  let rows =
    List.map
      (fun (name, per_variant) ->
        name
        :: List.map
             (fun v ->
               match List.assoc_opt v per_variant with
               | Some r ->
                   interactive_cell ~alone r (fun i _ ->
                       match i.E.is_avg_response with
                       | Some t -> Report.ratio (float_of_int t /. alone_resp)
                       | None -> "-")
               | None -> "-")
             E.all_variants)
      m.mx_results
  in
  render (fun fmt ->
      Report.table
        ~title:
          (Printf.sprintf
             "Figure 10(b): interactive response at %s sleep, normalized to \
              running alone (alone = %s)"
             (Time_ns.to_string m.mx_sleep)
             (Report.ns_opt alone.E.is_avg_response))
        ~header:[ "benchmark"; "O"; "P"; "R"; "B" ]
        ~rows fmt ())

let fig10c (m : matrix) =
  let rows =
    List.map
      (fun (name, per_variant) ->
        name
        :: List.map
             (fun v ->
               match List.assoc_opt v per_variant with
               | Some r ->
                   interactive_cell ~alone:m.mx_alone r (fun i _ ->
                       match i.E.is_avg_hard_faults with
                       | Some f -> Report.f1 f
                       | None -> "-")
               | None -> "-")
             E.all_variants)
      m.mx_results
  in
  render (fun fmt ->
      Report.table
        ~title:
          "Figure 10(c): interactive hard page faults per sweep (64 pages = \
           whole data set)"
        ~header:[ "benchmark"; "O"; "P"; "R"; "B" ]
        ~rows fmt ())

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_batch ?(machine = Machine.paper)
    ?(targets = [ 10; 50; 100; 400; 1600 ]) ?(jobs = 1) ?(log = no_log) () =
  (* FFTPDE under the buffered policy keeps its whole release stream in the
     priority queues (false temporal reuse), so the drain batch size is the
     only thing between the application and the paging daemon. *)
  let log = locked_log log in
  let wl = Workload.find "FFTPDE" in
  let sleep = Time_ns.sec 5 in
  let rows =
    pmap ~jobs
      (fun target ->
        log (Printf.sprintf "release target %d ..." target);
        let r =
          E.run
            (E.setup ~machine ~interactive_sleep:sleep
               ~min_sim_time:(sweep_min_time ~sleep) ~workload:wl ~variant:E.B
               ~release_target:target ())
        in
        [
          string_of_int target;
          Report.ns (r.E.r_elapsed / r.E.r_iterations);
          Report.count
            (match r.E.r_runtime with
            | Some rt -> rt.Memhog_runtime.Runtime.rt_buffer_drains
            | None -> 0);
          Report.count r.E.r_global.VS.daemon_pages_stolen;
          (match r.E.r_interactive with
          | Some i -> Report.ns_opt i.E.is_avg_response
          | None -> "-");
        ])
      targets
  in
  render (fun fmt ->
      Report.table
        ~title:
          "Ablation: release batch size (pages drained per buffering \
           decision; paper fixes 100 and never varied it).  FFTPDE B."
        ~header:
          [ "batch"; "per-pass"; "drains"; "daemon stole"; "interactive" ]
        ~rows fmt ())

let ablation_hwbits ?(machine = Machine.paper) ?(jobs = 1) ?(log = no_log) () =
  let log = locked_log log in
  let hw_machine =
    {
      machine with
      Machine.m_config =
        { machine.Machine.m_config with Memhog_vm.Config.hw_ref_bits = true };
      m_name = machine.Machine.m_name ^ " + hardware reference bits";
    }
  in
  let specs =
    List.concat_map
      (fun wname ->
        List.concat_map
          (fun v ->
            List.map
              (fun lm -> (wname, v, lm))
              [ ("software", machine); ("hardware", hw_machine) ])
          [ E.P; E.R ])
      [ "EMBAR"; "MATVEC" ]
  in
  let rows =
    pmap ~jobs
      (fun (wname, v, (label, m)) ->
        log (Printf.sprintf "%s/%s (%s) ..." wname (E.variant_name v) label);
        let wl = Workload.find wname in
        let r = E.run (E.setup ~machine:m ~workload:wl ~variant:v ()) in
        [
          Printf.sprintf "%s/%s" wname (E.variant_name v);
          label;
          Report.ns r.E.r_elapsed;
          Report.count r.E.r_app_stats.VS.soft_faults;
          Report.ns r.E.r_breakdown.E.b_resource_stall;
        ])
      specs
  in
  render (fun fmt ->
      Report.table
        ~title:
          "Ablation: software-simulated vs hardware reference bits (the \
           paper's section-6 question)"
        ~header:[ "run"; "ref bits"; "elapsed"; "soft faults"; "resource stall" ]
        ~rows fmt ())

let ablation_conservative ?(machine = Machine.paper) ?(jobs = 1) ?(log = no_log)
    () =
  let log = locked_log log in
  let specs =
    List.concat_map
      (fun wname ->
        List.concat_map
          (fun v ->
            List.map
              (fun lc -> (wname, v, lc))
              [ ("aggressive", false); ("conservative", true) ])
          [ E.R; E.B ])
      [ "MATVEC" ]
  in
  let rows =
    pmap ~jobs
      (fun (wname, v, (label, conservative)) ->
        log (Printf.sprintf "%s/%s (%s) ..." wname (E.variant_name v) label);
        let wl = Workload.find wname in
        let r = E.run (E.setup ~machine ~conservative ~workload:wl ~variant:v ()) in
        [
          Printf.sprintf "%s/%s" wname (E.variant_name v);
          label;
          Report.ns r.E.r_elapsed;
          Report.count r.E.r_app_stats.VS.releases_requested;
          Report.count r.E.r_app_stats.VS.rescued_releaser;
        ])
      specs
  in
  render (fun fmt ->
      Report.table
        ~title:
          "Ablation: aggressive (paper) vs conservative (section 2.3.2) \
           release insertion"
        ~header:[ "run"; "insertion"; "elapsed"; "release reqs"; "rescued" ]
        ~rows fmt ())

let ablation_rescue ?(machine = Machine.paper) ?(jobs = 1) ?(log = no_log) () =
  let log = locked_log log in
  let no_rescue =
    {
      machine with
      Machine.m_config =
        {
          machine.Machine.m_config with
          Memhog_vm.Config.rescue_from_free_list = false;
        };
      m_name = machine.Machine.m_name ^ " - rescue disabled";
    }
  in
  let specs =
    List.concat_map
      (fun wname ->
        List.map
          (fun lm -> (wname, lm))
          [ ("rescue on", machine); ("rescue off", no_rescue) ])
      [ "MATVEC"; "MGRID" ]
  in
  let rows =
    pmap ~jobs
      (fun (wname, (label, m)) ->
        log (Printf.sprintf "%s/R (%s) ..." wname label);
        let wl = Workload.find wname in
        let r = E.run (E.setup ~machine:m ~workload:wl ~variant:E.R ()) in
        [
          Printf.sprintf "%s/R" wname;
          label;
          Report.ns r.E.r_elapsed;
          Report.count
            (r.E.r_app_stats.VS.rescued_daemon
            + r.E.r_app_stats.VS.rescued_releaser);
          Report.count r.E.r_app_stats.VS.hard_faults;
        ])
      specs
  in
  render (fun fmt ->
      Report.table
        ~title:"Ablation: rescuing freed pages from the free-list tail"
        ~header:[ "run"; "rescue"; "elapsed"; "rescued"; "hard faults" ]
        ~rows fmt ())

let ablation_drop ?(machine = Machine.paper) ?(jobs = 1) ?(log = no_log) () =
  let log = locked_log log in
  let no_drop =
    {
      machine with
      Machine.m_config =
        {
          machine.Machine.m_config with
          Memhog_vm.Config.drop_prefetch_when_low = false;
        };
      m_name = machine.Machine.m_name ^ " - prefetch drop disabled";
    }
  in
  let wl = Workload.find "MATVEC" in
  let sleep = Time_ns.sec 5 in
  let rows =
    pmap ~jobs
      (fun (label, m) ->
        log (Printf.sprintf "MATVEC/P (%s) ..." label);
        let r =
          E.run
            (E.setup ~machine:m ~interactive_sleep:sleep
               ~min_sim_time:(sweep_min_time ~sleep) ~workload:wl ~variant:E.P ())
        in
        [
          label;
          Report.ns r.E.r_elapsed;
          Report.count r.E.r_app_stats.VS.prefetches_dropped;
          (match r.E.r_interactive with
          | Some i -> Report.ns_opt i.E.is_avg_response
          | None -> "-");
        ])
      [ ("drop when low (paper)", machine); ("block for memory", no_drop) ]
  in
  render (fun fmt ->
      Report.table
        ~title:
          "Ablation: discarding prefetches when memory is exhausted \
           (section 3.1.2)"
        ~header:
          [ "policy"; "MATVEC P elapsed"; "dropped"; "interactive response" ]
        ~rows fmt ())

let ablation_tlb ?(machine = Machine.paper) ?(jobs = 1) ?(log = no_log) () =
  let log = locked_log log in
  let fills =
    {
      machine with
      Machine.m_config =
        { machine.Machine.m_config with Memhog_vm.Config.prefetch_fills_tlb = true };
      m_name = machine.Machine.m_name ^ " + prefetch fills TLB";
    }
  in
  let specs =
    List.concat_map
      (fun wname ->
        List.map
          (fun lm -> (wname, lm))
          [ ("no TLB entry (paper)", machine); ("fills TLB", fills) ])
      [ "MATVEC"; "CGM" ]
  in
  let rows =
    pmap ~jobs
      (fun (wname, (label, m)) ->
        log (Printf.sprintf "%s/P (%s) ..." wname label);
        let wl = Workload.find wname in
        let r = E.run (E.setup ~machine:m ~workload:wl ~variant:E.P ()) in
        [
          Printf.sprintf "%s/P" wname;
          label;
          Report.ns (r.E.r_elapsed / r.E.r_iterations);
          Report.count r.E.r_app_tlb_misses;
        ])
      specs
  in
  render (fun fmt ->
      Report.table
        ~title:
          "Ablation: prefetched pages and the TLB (section 3.1.2: completed \
           prefetches are not validated and make no TLB entry)"
        ~header:[ "run"; "policy"; "per-pass"; "TLB misses" ]
        ~rows fmt ())

(* ------------------------------------------------------------------ *)
(* Extensions                                                          *)
(* ------------------------------------------------------------------ *)

let ext_freemem ?(machine = Machine.paper) ?(jobs = 1) ?(log = no_log) () =
  let log = locked_log log in
  let wl = Workload.find "MATVEC" in
  let sleep = Time_ns.sec 5 in
  let runs =
    pmap ~jobs
      (fun v ->
        log (Printf.sprintf "MATVEC/%s ..." (E.variant_name v));
        let r =
          E.run
            (E.setup ~machine ~interactive_sleep:sleep
               ~min_sim_time:(sweep_min_time ~sleep) ~workload:wl ~variant:v ())
        in
        (v, r))
      E.all_variants
  in
  render (fun fmt ->
      Format.fprintf fmt
        "Extension: free physical memory over time (MATVEC + interactive, \
         %d-frame machine)@,@,"
        machine.Machine.m_config.Memhog_vm.Config.total_frames;
      List.iter
        (fun (v, (r : E.result)) ->
          Format.fprintf fmt "%s:@," (E.variant_name v);
          List.iter
            (fun s ->
              Format.fprintf fmt "  %a@," Memhog_sim.Telemetry.pp_summary s)
            (Memhog_sim.Telemetry.summaries r.E.r_telemetry);
          Format.fprintf fmt "@,")
        runs)

let ext_two_hogs ?(machine = Machine.paper) ?(jobs = 1) ?(log = no_log) () =
  let log = locked_log log in
  let module Os = Memhog_vm.Os in
  let module App = Memhog_exec.App in
  let run_pair variant =
    log
      (Printf.sprintf "MATVEC + EMBAR, both %s ..." (Pir.variant_letter variant));
    let engine =
      Memhog_sim.Engine.create ~max_time:(Time_ns.sec 14400) ()
    in
    let os =
      Os.create ~swap_config:machine.Machine.m_swap
        ~config:machine.Machine.m_config ~engine ()
    in
    let build name =
      let wl = Workload.find name in
      let prog_ir, params =
        wl.Workload.w_make
          ~mem_bytes:(Machine.mem_bytes machine)
          ~page_bytes:machine.Machine.m_config.Memhog_vm.Config.page_bytes
      in
      let prog =
        Compile.compile ~target:(Machine.compiler_target machine) ~variant
          prog_ir
      in
      App.create ~seed:machine.Machine.m_seed ~os ~params prog
    in
    let a = build "MATVEC" and b = build "EMBAR" in
    let done_a = ref 0 and done_b = ref 0 in
    let finished = ref 0 in
    let spawn_app app done_ =
      ignore
        (Memhog_sim.Engine.spawn engine ~name:"hog" (fun () ->
             App.run app ~iterations:2;
             done_ := Memhog_sim.Engine.now ();
             incr finished;
             if !finished = 2 then Memhog_sim.Engine.stop ()))
    in
    spawn_app a done_a;
    spawn_app b done_b;
    Memhog_sim.Engine.run engine;
    (!done_a, !done_b, (Os.global_stats os).VS.daemon_pages_stolen)
  in
  let (o_a, o_b, o_stolen), (r_a, r_b, r_stolen) =
    match pmap ~jobs run_pair [ Pir.V_original; Pir.V_release ] with
    | [ o; r ] -> (o, r)
    | _ -> assert false
  in
  render (fun fmt ->
      Report.table
        ~title:
          "Extension: two out-of-core programs sharing the machine (2 passes \
           each)"
        ~header:[ "configuration"; "MATVEC done"; "EMBAR done"; "daemon stole" ]
        ~rows:
          [
            [
              "both original";
              Report.ns o_a;
              Report.ns o_b;
              Report.count o_stolen;
            ];
            [
              "both prefetch+release";
              Report.ns r_a;
              Report.ns r_b;
              Report.count r_stolen;
            ];
          ]
        fmt ())

let ext_reactive ?(machine = Machine.paper) ?(jobs = 1) ?(log = no_log) () =
  (* BUK is the benchmark where application knowledge beats the clock: the
     default policy evicts pages of the randomly-accessed bucket array,
     which the application knows it will need again. *)
  let log = locked_log log in
  let wl = Workload.find "BUK" in
  let sleep = Time_ns.sec 5 in
  let one (label, variant, reactive) =
    log (Printf.sprintf "BUK %s ..." label);
    let r =
      E.run
        (E.setup ~machine ~interactive_sleep:sleep
           ~min_sim_time:(sweep_min_time ~sleep) ~workload:wl ~variant ~reactive
           ())
    in
    [
      label;
      Report.ns (r.E.r_elapsed / r.E.r_iterations);
      Report.count (r.E.r_app_stats.VS.hard_faults / r.E.r_iterations);
      Report.count r.E.r_global.VS.daemon_pages_stolen;
      (match r.E.r_interactive with
      | Some i -> Report.ns_opt i.E.is_avg_response
      | None -> "-");
    ]
  in
  let rows =
    pmap ~jobs one
      [
        ("prefetch only (P)", E.P, false);
        ("reactive eviction (sec. 2.2)", E.R, true);
        ("pro-active release (R)", E.R, false);
      ]
  in
  render (fun fmt ->
      Report.table
        ~title:
          "Extension: reactive (application-chosen eviction on demand) vs \
           pro-active releasing — section 2.2's argument.  BUK + interactive \
           task, 5 s sleep."
        ~header:
          [ "scheme"; "hog per-pass"; "hog faults/pass"; "daemon stole"; "interactive" ]
        ~rows fmt ())

(* ------------------------------------------------------------------ *)
(* Serving extension (ROADMAP item 5)                                  *)
(* ------------------------------------------------------------------ *)

(* Figures 1/10 retold for an open-loop server: the hog's releases are what
   keep the server's tail latency flat as offered load rises. *)
let serve_tail (t : Serve.t) =
  let module Sv = Memhog_exec.Server in
  let rates =
    List.sort_uniq compare
      (List.map (fun (c, _) -> c.Serve.sc_rate) t.Serve.s_cells)
  in
  let variants =
    List.filter
      (fun v ->
        List.exists (fun (c, _) -> c.Serve.sc_variant = v) t.Serve.s_cells)
      E.all_variants
  in
  let lookup rate v =
    List.find_opt
      (fun (c, _) -> c.Serve.sc_rate = rate && c.Serve.sc_variant = v)
      t.Serve.s_cells
    |> Option.map (fun (_, r) -> Serve.serving_exn r)
  in
  let p999 s = Histogram.percentile s.Sv.sm_hist 99.9 in
  let rows =
    List.map
      (fun rate ->
        let per_variant =
          List.concat_map
            (fun v ->
              match lookup rate v with
              | Some s -> [ Report.ns (p999 s); Report.pct (Sv.slo_attainment s) ]
              | None -> [ "-"; "-" ])
            variants
        in
        let spread =
          match (lookup rate E.O, lookup rate E.B) with
          | Some o, Some b when p999 b > 0 ->
              Report.ratio (float_of_int (p999 o) /. float_of_int (p999 b))
          | _ -> "-"
        in
        (Printf.sprintf "%s rps" (Report.f1 rate) :: per_variant) @ [ spread ])
      rates
  in
  render (fun fmt ->
      Report.table
        ~title:
          (Printf.sprintf
             "Serving tail vs offered load: %s hog, SLO %s from arrival"
             t.Serve.s_workload
             (Time_ns.to_string t.Serve.s_slo))
        ~header:
          ("offered"
          :: List.concat_map
               (fun v ->
                 let n = E.variant_name v in
                 [ n ^ " p999"; n ^ " SLO" ])
               variants
          @ [ "O/B p999" ])
        ~rows fmt ())

(* The p999 ratio says the un-released hog hurts the tail; the blame shares
   say how: under O the tail's time concentrates in queue and value-stall,
   under B it stays in compute.  Shares are over the tail bands (p99 and
   beyond) of each cell's deterministic span sample. *)
let serve_blame (t : Serve.t) =
  let rows =
    List.map
      (fun (c, r) ->
        let b = Serve.blame_exn r in
        let tail =
          List.filter
            (fun (bd : Reqtrace.band) -> bd.Reqtrace.bd_label <> "body")
            b.Reqtrace.su_bands
        in
        let sum f = List.fold_left (fun a bd -> a + f bd) 0 tail in
        let resp = sum (fun bd -> bd.Reqtrace.bd_response) in
        let share v =
          if resp = 0 then "-"
          else Report.pct (float_of_int v /. float_of_int resp)
        in
        [
          Printf.sprintf "%s/%s" t.Serve.s_workload
            (E.variant_name c.Serve.sc_variant);
          Printf.sprintf "%s rps" (Report.f1 c.Serve.sc_rate);
          Report.count (sum (fun bd -> bd.Reqtrace.bd_count));
          share (sum (fun bd -> bd.Reqtrace.bd_queue));
          share (sum (fun bd -> bd.Reqtrace.bd_index));
          share (sum (fun bd -> bd.Reqtrace.bd_value));
          share (sum (fun bd -> bd.Reqtrace.bd_cpu));
          share (sum (fun bd -> bd.Reqtrace.bd_compute));
        ])
      t.Serve.s_cells
  in
  render (fun fmt ->
      Report.table
        ~title:
          (Printf.sprintf
             "Tail blame shares (p99 and beyond): %s hog, sampled requests"
             t.Serve.s_workload)
        ~header:
          [
            "hog"; "offered"; "tail reqs"; "queue"; "index"; "value";
            "cpu wait"; "compute";
          ]
        ~rows fmt ())

let serve_report (t : Serve.t) =
  String.concat "\n"
    [ Serve.render t; serve_tail t; Serve.render_blame t; serve_blame t ]

let ext_serve ?(machine = Machine.paper) ?(jobs = 1) ?(log = no_log) ?chaos () =
  serve_report (Serve.run ~machine ?chaos ~jobs ~log ())
