(* Everything the benchmark reads out of one [Experiment.result]: the
   simulated end-to-end outcomes, the per-layer counters, and the output
   checks.  All of it is deterministic for a fixed setup, so two runs with
   one seed must agree on every value here. *)

module E = Memhog_core.Experiment
module Machine = Memhog_core.Machine
module VS = Memhog_vm.Vm_stats
module Tiers = Memhog_vm.Tiers
module Runtime = Memhog_runtime.Runtime
module Server = Memhog_exec.Server
module Reqtrace = Memhog_sim.Reqtrace
module Ledger = Memhog_sim.Ledger
module Histogram = Memhog_sim.Histogram
module Telemetry = Memhog_sim.Telemetry

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let count name n = m name "count" (float_of_int n)
let ratio name num den = m name "ratio" (if den = 0 then 0.0 else float num /. float den)
let sim_s ns = float_of_int ns /. 1e9
let sim_ms ns = float_of_int ns /. 1e6

(* Simulated seconds the engine advanced: the hog's completion time in a
   batch cell, the last 100 ms telemetry scrape in a serve cell (where the
   hog is cut off mid-pass). *)
let sim_seconds (r : E.result) =
  let scraped = Telemetry.scrapes r.E.r_telemetry * 100_000_000 in
  sim_s (max r.E.r_elapsed scraped)

(* Hog plus interactive task: the processes whose counters the result
   carries. *)
let proc_stats (r : E.result) =
  let p = VS.create_proc () in
  VS.add_proc p r.E.r_app_stats;
  Option.iter (VS.add_proc p) r.E.r_inter_stats;
  p

let far_tier (r : E.result) =
  Option.bind r.E.r_tiers (fun s ->
      List.find_opt (fun t -> t.Tiers.ts_tier = Tiers.tier_far) s.Tiers.s_tiers)

(* Simulated outcomes a user of the system would see; 0 where the
   workload has no such client (no server on a batch workload, no
   interactive task on serve-tiered). *)
let sim_outcomes (r : E.result) =
  let inter_ms =
    match r.E.r_interactive with
    | Some { E.is_avg_response = Some t; _ } -> sim_ms t
    | _ -> 0.0
  in
  let pct h p = if Histogram.is_empty h then 0.0 else sim_ms (Histogram.percentile h p) in
  let serve =
    match r.E.r_serving with
    | Some s ->
        let h = s.Server.sm_hist in
        [
          m "sim_p50_ms" "sim_ms" (pct h 50.0);
          m "sim_p99_ms" "sim_ms" (pct h 99.0);
          m "sim_p999_ms" "sim_ms" (pct h 99.9);
          count "sim_samples" s.Server.sm_recorded;
          m "sim_slo_attainment" "ratio" (Server.slo_attainment s);
        ]
    | None ->
        [
          m "sim_p50_ms" "sim_ms" 0.0;
          m "sim_p99_ms" "sim_ms" 0.0;
          m "sim_p999_ms" "sim_ms" 0.0;
          count "sim_samples" 0;
          m "sim_slo_attainment" "ratio" 0.0;
        ]
  in
  [
    m "sim_elapsed_s" "sim_s" (sim_s r.E.r_elapsed);
    m "sim_interactive_response_ms" "sim_ms" inter_ms;
  ]
  @ serve

(* The simulated outcomes that exist on this kind of workload. *)
let sim_applicable ~serve ms =
  let batch = [ "sim_elapsed_s"; "sim_interactive_response_ms" ] in
  List.filter
    (fun x ->
      String.starts_with ~prefix:"sim_" x.name && List.mem x.name batch <> serve)
    ms

(* Per-layer counters that no observability switch may change. *)
let layer_counts ~machine (r : E.result) =
  let p = proc_stats r in
  let g = r.E.r_global in
  let b = r.E.r_breakdown in
  let fault_pct q =
    if Histogram.is_empty r.E.r_fault_hist then 0.0
    else sim_ms (Histogram.percentile r.E.r_fault_hist q)
  in
  let disks = machine.Machine.m_swap.Memhog_disk.Swap.num_disks in
  let rt = r.E.r_runtime in
  let rtc f = match rt with Some s -> f s | None -> 0 in
  let far f = match far_tier r with Some t -> f t | None -> 0 in
  let tsum f = match r.E.r_tiers with Some s -> f s | None -> 0 in
  let inter = r.E.r_interactive in
  let serving f = match r.E.r_serving with Some s -> f s | None -> 0 in
  let tail =
    match r.E.r_blame with
    | Some su ->
        List.find_opt (fun bd -> bd.Reqtrace.bd_label = "tail") su.Reqtrace.su_bands
    | None -> None
  in
  let blame name f =
    match tail with
    | Some bd -> ratio name (f bd) bd.Reqtrace.bd_response
    | None -> ratio name 0 0
  in
  let pf_hidden, pf_lost =
    match r.E.r_blame with
    | Some su -> (su.Reqtrace.su_pf_hidden, su.Reqtrace.su_pf_lost)
    | None -> (0, 0)
  in
  [
    count "engine.events" r.E.r_events_executed;
    count "vm.hard_faults" p.VS.hard_faults;
    count "vm.soft_faults" p.VS.soft_faults;
    count "vm.validations" p.VS.validation_faults;
    count "vm.daemon_activations" g.VS.daemon_activations;
    count "vm.daemon_invalidations" g.VS.daemon_invalidations;
    count "vm.pages_stolen" g.VS.daemon_pages_stolen;
    count "vm.freed_by_release" g.VS.releaser_pages_freed;
    count "vm.rescued" (p.VS.rescued_daemon + p.VS.rescued_releaser);
    count "vm.allocation_waits" g.VS.allocation_waits;
    m "vm.fault_p50_ms" "sim_ms" (fault_pct 50.0);
    m "vm.fault_p99_ms" "sim_ms" (fault_pct 99.0);
    count "disk.reads" r.E.r_swap_reads;
    count "disk.writes" r.E.r_swap_writes;
    m "disk.busy_share" "ratio"
      (sim_s r.E.r_disk_busy /. (sim_seconds r *. float_of_int disks));
    count "disk.demand_bypasses" r.E.r_disk_bypasses;
    count "disk.timeouts" r.E.r_disk_timeouts;
    count "tiers.far_reads" (far (fun t -> t.Tiers.ts_reads));
    count "tiers.far_writes" (far (fun t -> t.Tiers.ts_writes));
    count "tiers.placed" (tsum (fun s -> s.Tiers.s_placed));
    count "tiers.failovers" (far (fun t -> t.Tiers.ts_failovers));
    count "tiers.rescues" (tsum (fun s -> s.Tiers.s_rescues));
    count "runtime.prefetch_requests" (rtc (fun s -> s.Runtime.rt_prefetch_requests));
    ratio "runtime.prefetch_filter_ratio"
      (rtc (fun s -> s.Runtime.rt_prefetch_filtered))
      (rtc (fun s -> s.Runtime.rt_prefetch_requests));
    count "runtime.release_requests" (rtc (fun s -> s.Runtime.rt_release_requests));
    count "runtime.releases_issued" (rtc (fun s -> s.Runtime.rt_release_issued));
    count "runtime.releases_buffered" (rtc (fun s -> s.Runtime.rt_release_buffered));
    count "runtime.stale_dropped" (rtc (fun s -> s.Runtime.rt_release_stale_dropped));
    count "app.iterations" r.E.r_iterations;
    m "app.user_sim_s" "sim_s" (sim_s b.E.b_user);
    m "app.system_sim_s" "sim_s" (sim_s b.E.b_system);
    m "app.io_stall_sim_s" "sim_s" (sim_s b.E.b_io_stall);
    m "app.resource_stall_sim_s" "sim_s" (sim_s b.E.b_resource_stall);
    count "interactive.sweeps" (match inter with Some i -> i.E.is_sweeps | None -> 0);
    m "interactive.hard_faults_per_sweep" "faults"
      (match inter with
      | Some { E.is_avg_hard_faults = Some f; _ } -> f
      | _ -> 0.0);
    m "interactive.alone_ms" "sim_ms"
      (match inter with Some i -> sim_ms i.E.is_alone_response | None -> 0.0);
    count "server.arrived" (serving (fun s -> s.Server.sm_arrived));
    count "server.completed" (serving (fun s -> s.Server.sm_completed));
    count "server.queue_max" (serving (fun s -> s.Server.sm_max_queue));
    blame "blame.queue_share" (fun bd -> bd.Reqtrace.bd_queue);
    blame "blame.index_share" (fun bd -> bd.Reqtrace.bd_index);
    blame "blame.value_share" (fun bd -> bd.Reqtrace.bd_value);
    blame "blame.cpu_share" (fun bd -> bd.Reqtrace.bd_cpu);
    blame "blame.compute_share" (fun bd -> bd.Reqtrace.bd_compute);
    ratio "blame.prefetch_hidden_ratio" pf_hidden (pf_hidden + pf_lost);
    count "compiler.prefetch_sites" r.E.r_compiler.Memhog_compiler.Pir.gs_prefetch_sites;
    count "compiler.release_sites" r.E.r_compiler.Memhog_compiler.Pir.gs_release_sites;
  ]

(* Counters that exist only while the ledger or telemetry is on. *)
let obs_counts (r : E.result) =
  let l = r.E.r_ledger in
  [
    ratio "ledger.useful_prefetch_ratio"
      (l.Ledger.ls_prefetches_issued - l.Ledger.ls_useless_prefetches)
      l.Ledger.ls_prefetches_issued;
    ratio "ledger.release_refault_ratio"
      (l.Ledger.ls_early_rescued + l.Ledger.ls_early_refaulted)
      l.Ledger.ls_releases_freed;
    count "telemetry.alerts_fired"
      (List.length
         (List.filter (fun a -> a.Telemetry.al_fired) (Telemetry.alerts r.E.r_telemetry)));
  ]

(* The ledger's totals against the VM's own counters: the comparisons
   [memhog audit] makes, over every process whose counters the result
   carries (the hog and the interactive task).  In serve mode the ledger
   also sees the server, whose counters the result does not carry: there
   only the release counters (the server never releases) must agree
   exactly, and the rest must cover the hog's. *)
let ledger_mismatches ~serve (r : E.result) =
  let l = r.E.r_ledger and s = proc_stats r in
  let exact = [
      ("releases freed", l.Ledger.ls_releases_freed, s.VS.freed_by_releaser);
      ("releases skipped", l.Ledger.ls_releases_skipped, s.VS.releases_skipped);
    ]
  and per_process = [
      ("hard faults", l.Ledger.ls_hard_faults, s.VS.hard_faults);
      ("soft faults", l.Ledger.ls_soft_faults, s.VS.soft_faults);
      ("validation faults", l.Ledger.ls_validation_faults, s.VS.validation_faults);
      ("zero fills", l.Ledger.ls_zero_fills, s.VS.zero_fills);
      ("rescues", l.Ledger.ls_rescues, s.VS.rescued_daemon + s.VS.rescued_releaser);
      ("prefetches issued", l.Ledger.ls_prefetches_issued, s.VS.prefetches_issued);
      ("prefetches dropped", l.Ledger.ls_prefetches_dropped, s.VS.prefetches_dropped);
    ]
  in
  let check ~cover (name, lv, vv) =
    if lv = vv || (cover && lv > vv) then None
    else Some (Printf.sprintf "ledger %s %d <> vm %d" name lv vv)
  in
  List.filter_map (check ~cover:false) exact
  @ List.filter_map (check ~cover:serve) per_process
  @ if Ledger.invariants_ok l then [] else [ "ledger invariants violated" ]

(* Why one workload run counts as failed; [] when it passed. *)
let failures ~ledger ~serve (r : E.result) =
  (if r.E.r_invariants_ok then [] else [ "OS invariants violated" ])
  @ (if ledger then ledger_mismatches ~serve r else [])
  @
  match r.E.r_serving with
  | Some s when s.Server.sm_arrived <> s.Server.sm_completed ->
      [ Printf.sprintf "server arrived %d <> completed %d" s.Server.sm_arrived
          s.Server.sm_completed ]
  | _ -> []

let value ms name =
  match List.find_opt (fun x -> x.name = name) ms with
  | Some x -> x.value
  | None -> invalid_arg ("Observe.value: " ^ name)

(* Each workload does what its row claims: fault-storm never enters the
   run-time layer and keeps the paging daemon busy; release-buffered
   idles the daemon and gives the interactive task its stand-alone
   response; only serve-tiered drives the server and the far tier. *)
let isolation_failures ~serve ~variant ms =
  let v = value ms in
  let under p x = String.starts_with ~prefix:p x.name in
  let nonzero p = List.filter (fun x -> under p x && x.value <> 0.0) ms in
  let zero p = List.filter (fun x -> under p x && x.value = 0.0) ms in
  let fail cond msg = if cond then [ msg ] else [] in
  (if serve then
     fail (zero "tiers.far_" <> []) "serve-tiered: far tier unused"
     @ fail (v "server.arrived" = 0.0) "serve-tiered: no requests"
   else
     fail (nonzero "tiers." <> []) "batch workload touched the tiers"
     @ fail (nonzero "server." <> []) "batch workload ran the server")
  @
  match variant with
  | E.O ->
      fail (nonzero "runtime." <> []) "fault-storm entered the run-time layer"
      @ fail (v "vm.daemon_activations" = 0.0) "fault-storm: paging daemon idle"
  | E.B when not serve ->
      fail (v "vm.daemon_activations" <> 0.0) "release-buffered: paging daemon ran"
      @ fail
          (v "sim_interactive_response_ms" <> v "interactive.alone_ms")
          "release-buffered: interactive response differs from stand-alone"
  | _ -> []
