(* The metrics document: one encoder per layer, each over the summary type
   the layer already exports, and the report that reads the document back.
   Every key string of the document lives in this file. *)

open Memhog_sim
open Metrics_io
module VS = Memhog_vm.Vm_stats
module Runtime = Memhog_runtime.Runtime
module Tiers = Memhog_vm.Tiers
module Server = Memhog_exec.Server
module Pir = Memhog_compiler.Pir
module E = Experiment

let int = num_of_int
let float = num_of_float
let opt f = function None -> Null | Some v -> f v
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Encoders                                                            *)
(* ------------------------------------------------------------------ *)

let hist_json h =
  Obj
    [
      ("count", int (Histogram.count h));
      ("sum_ns", int (Histogram.sum h));
      ("min_ns", int (Option.value (Histogram.min_value h) ~default:0));
      ("max_ns", int (Option.value (Histogram.max_value h) ~default:0));
      ("mean_ns", float (Histogram.mean h));
      ("p50_ns", int (Histogram.percentile h 50.0));
      ("p90_ns", int (Histogram.percentile h 90.0));
      ("p99_ns", int (Histogram.percentile h 99.0));
      ("p999_ns", int (Histogram.percentile h 99.9));
      ( "buckets",
        Arr
          (List.map
             (fun (lo, c) -> Arr [ int lo; int c ])
             (Histogram.to_alist h)) );
    ]

let breakdown_json (b : E.breakdown) =
  Obj
    [
      ("user_ns", int b.E.b_user);
      ("system_ns", int b.E.b_system);
      ("io_stall_ns", int b.E.b_io_stall);
      ("resource_stall_ns", int b.E.b_resource_stall);
    ]

(* Figure 9 plus the run-time layer's stale drops: what happened to the
   pages the application released. *)
let release_json ~stale_dropped (s : VS.proc) =
  Obj
    [
      ("requested", int s.VS.releases_requested);
      ("skipped", int s.VS.releases_skipped);
      ("freed_daemon", int s.VS.freed_by_daemon);
      ("freed_releaser", int s.VS.freed_by_releaser);
      ("rescued_daemon", int s.VS.rescued_daemon);
      ("rescued_releaser", int s.VS.rescued_releaser);
      ("lost_daemon", int s.VS.lost_daemon);
      ("lost_releaser", int s.VS.lost_releaser);
      ("stale_dropped", int stale_dropped);
      ("rescue_ratio_daemon", float (ratio s.VS.rescued_daemon s.VS.freed_by_daemon));
      ( "rescue_ratio_releaser",
        float (ratio s.VS.rescued_releaser s.VS.freed_by_releaser) );
    ]

let proc_json (p : VS.proc) =
  Obj
    [
      ("hard_faults", int p.VS.hard_faults);
      ("soft_faults", int p.VS.soft_faults);
      ("soft_faults_daemon", int p.VS.soft_faults_daemon);
      ("validation_faults", int p.VS.validation_faults);
      ("zero_fills", int p.VS.zero_fills);
      ("rescued_daemon", int p.VS.rescued_daemon);
      ("rescued_releaser", int p.VS.rescued_releaser);
      ("lost_daemon", int p.VS.lost_daemon);
      ("lost_releaser", int p.VS.lost_releaser);
      ("freed_by_daemon", int p.VS.freed_by_daemon);
      ("freed_by_releaser", int p.VS.freed_by_releaser);
      ("releases_requested", int p.VS.releases_requested);
      ("releases_skipped", int p.VS.releases_skipped);
      ("prefetches_issued", int p.VS.prefetches_issued);
      ("prefetches_dropped", int p.VS.prefetches_dropped);
      ("prefetches_useless", int p.VS.prefetches_useless);
      ("prefetch_rescues", int p.VS.prefetch_rescues);
      ("writebacks", int p.VS.writebacks);
      ("invalidations", int p.VS.invalidations);
    ]

let global_json (g : VS.global) =
  Obj
    [
      ("daemon_activations", int g.VS.daemon_activations);
      ("daemon_pages_stolen", int g.VS.daemon_pages_stolen);
      ("daemon_frames_scanned", int g.VS.daemon_frames_scanned);
      ("daemon_invalidations", int g.VS.daemon_invalidations);
      ("releaser_batches", int g.VS.releaser_batches);
      ("releaser_pages_freed", int g.VS.releaser_pages_freed);
      ("allocations", int g.VS.allocations);
      ("allocation_waits", int g.VS.allocation_waits);
    ]

let telemetry_json tl =
  let series (s : Telemetry.series_summary) =
    Obj
      [
        ("name", Str s.Telemetry.ts_name);
        ("kind", Str (Telemetry.kind_name s.Telemetry.ts_kind));
        ("samples", int s.Telemetry.ts_samples);
        ("last", float s.Telemetry.ts_last);
        ("min", float s.Telemetry.ts_min);
        ("mean", float s.Telemetry.ts_mean);
        ("max", float s.Telemetry.ts_max);
      ]
  in
  let alert (a : Telemetry.alert) =
    Obj
      [
        ("time_ns", int a.Telemetry.al_time);
        ("rule", Str a.Telemetry.al_rule);
        ("event", Str (if a.Telemetry.al_fired then "fire" else "clear"));
        ("value", float a.Telemetry.al_value);
      ]
  in
  Obj
    [
      ("scrapes", int (Telemetry.scrapes tl));
      ("series", Arr (List.map series (Telemetry.summaries tl)));
      ("alerts", Arr (List.map alert (Telemetry.alerts tl)));
    ]

(* The graceful-degradation governor as the cell's run observed it. *)
let governor_json (rt : Runtime.stats) =
  Obj
    [
      ("level", int rt.Runtime.rt_gov_level);
      ("degrades", int rt.Runtime.rt_gov_degrades);
      ("recoveries", int rt.Runtime.rt_gov_recoveries);
      ("suppressed", int rt.Runtime.rt_gov_suppressed);
      ("prefetch_os_done", int rt.Runtime.rt_prefetch_os_done);
      ("prefetch_os_dropped", int rt.Runtime.rt_prefetch_os_dropped);
    ]

let chaos_json ~disk_timeouts (cs : Chaos.stats) =
  Obj
    [
      ("disk_faults", int cs.Chaos.disk_faults);
      ("disk_retries", int cs.Chaos.disk_retries);
      ("disk_backoff_ns", int cs.Chaos.disk_backoff_ns);
      ("disk_timeouts", int disk_timeouts);
      ("slow_requests", int cs.Chaos.slow_requests);
      ("releaser_stall_ns", int cs.Chaos.releaser_stall_ns);
      ("daemon_stall_ns", int cs.Chaos.daemon_stall_ns);
      ("directives_dropped", int cs.Chaos.directives_dropped);
      ("pressure_spikes", int cs.Chaos.pressure_spikes);
      ("pressure_pages", int cs.Chaos.pressure_pages);
    ]

let disk_json (r : E.result) =
  Obj
    [
      ("reads", int r.E.r_swap_reads);
      ("writes", int r.E.r_swap_writes);
      ("timeouts", int r.E.r_disk_timeouts);
      ("bypasses", int r.E.r_disk_bypasses);
      ("busy_ns", int r.E.r_disk_busy);
    ]

let tiers_json ~tier_buffered (s : Tiers.summary) =
  let row (t : Tiers.tier_summary) =
    Obj
      [
        ("tier", Str (Tiers.tier_name t.Tiers.ts_tier));
        ("reads", int t.Tiers.ts_reads);
        ("writes", int t.Tiers.ts_writes);
        ("timeouts", int t.Tiers.ts_timeouts);
        ("retries", int t.Tiers.ts_retries);
        ("rejects", int t.Tiers.ts_rejects);
        ("failovers", int t.Tiers.ts_failovers);
        ("breaker_transitions", int t.Tiers.ts_breaker_transitions);
      ]
  in
  Obj
    [
      ("tiers", Arr (List.map row s.Tiers.s_tiers));
      ("rescues", int s.Tiers.s_rescues);
      ("breaker_state", int s.Tiers.s_breaker_state);
      ("placed", int s.Tiers.s_placed);
      ("zram_amplification", float s.Tiers.s_zram_amplification);
      ("tier_buffered", int tier_buffered);
    ]

(* Ledger rows joined back to the compiled program's static sites. *)
let ledger_json ~sites (l : Ledger.summary) =
  let row (r : Ledger.site_row) =
    let kind, desc, static_priority =
      match
        List.find_opt (fun (si : Pir.site_info) -> si.Pir.si_tag = r.Ledger.sr_site) sites
      with
      | Some si ->
          ( (match si.Pir.si_kind with
            | Pir.S_prefetch -> "prefetch"
            | Pir.S_release -> "release"),
            si.Pir.si_desc,
            si.Pir.si_priority )
      | None -> ("unattributed", "", 0)
    in
    Obj
      [
        ("site", int r.Ledger.sr_site);
        ("kind", Str kind);
        ("desc", Str desc);
        ("static_priority", int static_priority);
        ("pf_sent", int r.Ledger.sr_pf_sent);
        ("pf_issued", int r.Ledger.sr_pf_issued);
        ("pf_dropped", int r.Ledger.sr_pf_dropped);
        ("pf_raced", int r.Ledger.sr_pf_raced);
        ("pf_done", int r.Ledger.sr_pf_done);
        ("pf_referenced", int r.Ledger.sr_pf_referenced);
        ("pf_useless", int r.Ledger.sr_pf_useless);
        ("pf_late", int r.Ledger.sr_pf_late);
        ("pf_saved_ns", int r.Ledger.sr_pf_saved_ns);
        ("rel_hints", int r.Ledger.sr_rel_hints);
        ("rel_filtered", int r.Ledger.sr_rel_filtered);
        ("rel_buffered", int r.Ledger.sr_rel_buffered);
        ("rel_stale", int r.Ledger.sr_rel_stale);
        ("rel_sent", int r.Ledger.sr_rel_sent);
        ("rel_skipped", int r.Ledger.sr_rel_skipped);
        ("rel_freed", int r.Ledger.sr_rel_freed);
        ("rel_rescued", int r.Ledger.sr_rel_rescued);
        ("rel_refaulted", int r.Ledger.sr_rel_refaulted);
        ("rel_reused", int r.Ledger.sr_rel_reused);
        ("rel_unreclaimed", int r.Ledger.sr_rel_unreclaimed);
        ("priority_mean", float r.Ledger.sr_priority_mean);
        ("refault_pct", float r.Ledger.sr_refault_pct);
      ]
  in
  Obj
    [
      ("pages_tracked", int l.Ledger.ls_pages_tracked);
      ("useless_prefetches", int l.Ledger.ls_useless_prefetches);
      ("late_prefetches", int l.Ledger.ls_late_prefetches);
      ("early_rescued", int l.Ledger.ls_early_rescued);
      ("early_refaulted", int l.Ledger.ls_early_refaulted);
      ("useful_releases", int l.Ledger.ls_useful_releases);
      ("unnecessary_releases", int l.Ledger.ls_unnecessary_releases);
      ("hard_faults", int l.Ledger.ls_hard_faults);
      ("soft_faults", int l.Ledger.ls_soft_faults);
      ("validation_faults", int l.Ledger.ls_validation_faults);
      ("zero_fills", int l.Ledger.ls_zero_fills);
      ("rescues", int l.Ledger.ls_rescues);
      ("prefetches_issued", int l.Ledger.ls_prefetches_issued);
      ("prefetches_dropped", int l.Ledger.ls_prefetches_dropped);
      ("releases_freed", int l.Ledger.ls_releases_freed);
      ("releases_skipped", int l.Ledger.ls_releases_skipped);
      ("sites", Arr (List.map row l.Ledger.ls_sites));
    ]

let serving_json (s : Server.summary) =
  Obj
    [
      ("offered_rps", float s.Server.sm_offered_rps);
      ("duration_ns", int s.Server.sm_duration);
      ("slo_ns", int s.Server.sm_slo);
      ("arrived", int s.Server.sm_arrived);
      ("completed", int s.Server.sm_completed);
      ("recorded", int s.Server.sm_recorded);
      ("max_queue", int s.Server.sm_max_queue);
      ("slo_ok", int s.Server.sm_slo_ok);
      ("slo_attainment", float (Server.slo_attainment s));
      ("mark_ns", opt int s.Server.sm_mark);
      ("post_recorded", int s.Server.sm_post_recorded);
      ("post_slo_ok", int s.Server.sm_post_slo_ok);
      ("post_attainment", float (Server.post_attainment s));
      ("response_hist", hist_json s.Server.sm_hist);
    ]

let blame_json (s : Reqtrace.summary) =
  let band (b : Reqtrace.band) =
    Obj
      [
        ("band", Str b.Reqtrace.bd_label);
        ("count", int b.Reqtrace.bd_count);
        ("queue_ns", int b.Reqtrace.bd_queue);
        ("index_ns", int b.Reqtrace.bd_index);
        ("value_ns", int b.Reqtrace.bd_value);
        ("cpu_ns", int b.Reqtrace.bd_cpu);
        ("compute_ns", int b.Reqtrace.bd_compute);
        ("response_ns", int b.Reqtrace.bd_response);
      ]
  in
  Obj
    [
      ("committed", int s.Reqtrace.su_committed);
      ("sampled", int s.Reqtrace.su_sampled);
      ("cap", int s.Reqtrace.su_cap);
      ("p50_ns", int s.Reqtrace.su_p50);
      ("p99_ns", int s.Reqtrace.su_p99);
      ("p999_ns", int s.Reqtrace.su_p999);
      ("bands", Arr (List.map band s.Reqtrace.su_bands));
      ("response_hist", hist_json s.Reqtrace.su_response);
      ("queue_hist", hist_json s.Reqtrace.su_queue);
      ("index_hist", hist_json s.Reqtrace.su_index);
      ("value_hist", hist_json s.Reqtrace.su_value);
      ("cpu_hist", hist_json s.Reqtrace.su_cpu);
      ("compute_hist", hist_json s.Reqtrace.su_compute);
      ("pf_slack_hist", hist_json s.Reqtrace.su_pf_slack);
      ("pf_hidden", int s.Reqtrace.su_pf_hidden);
      ("pf_lost", int s.Reqtrace.su_pf_lost);
      ("bypasses", int s.Reqtrace.su_bypasses);
      ("disk_queue_ns", int s.Reqtrace.su_disk_queue);
      ("disk_service_ns", int s.Reqtrace.su_disk_service);
      ("transit_ns", int s.Reqtrace.su_transit);
    ]

(* ------------------------------------------------------------------ *)
(* The document                                                        *)
(* ------------------------------------------------------------------ *)

let of_result (r : E.result) =
  let runtime f = match r.E.r_runtime with Some rt -> f rt | None -> 0 in
  Obj
    [
      ("workload", Str r.E.r_workload);
      ("variant", Str (E.variant_name r.E.r_variant));
      ("elapsed_ns", int r.E.r_elapsed);
      ("iterations", int r.E.r_iterations);
      ("app_breakdown", breakdown_json r.E.r_breakdown);
      ("interactive_breakdown", opt breakdown_json r.E.r_inter_breakdown);
      ("fault_hist", hist_json r.E.r_fault_hist);
      ("prefetch_hist", hist_json r.E.r_prefetch_hist);
      ("response_hist", opt hist_json r.E.r_response_hist);
      ( "release_accuracy",
        release_json
          ~stale_dropped:(runtime (fun rt -> rt.Runtime.rt_release_stale_dropped))
          r.E.r_app_stats );
      ("telemetry", telemetry_json r.E.r_telemetry);
      ("hard_faults", int r.E.r_app_stats.VS.hard_faults);
      ("soft_faults", int r.E.r_app_stats.VS.soft_faults);
      ("swap_reads", int r.E.r_swap_reads);
      ("swap_writes", int r.E.r_swap_writes);
      ("governor", opt governor_json r.E.r_runtime);
      ("chaos", opt (chaos_json ~disk_timeouts:r.E.r_disk_timeouts) r.E.r_chaos);
      ("disk", disk_json r);
      ( "tiers",
        opt
          (tiers_json ~tier_buffered:(runtime (fun rt -> rt.Runtime.rt_tier_buffered)))
          r.E.r_tiers );
      ("trace_dropped", int (Trace.dropped r.E.r_trace));
      ("ledger", ledger_json ~sites:r.E.r_sites r.E.r_ledger);
      ("serving", opt serving_json r.E.r_serving);
      ("blame", opt blame_json r.E.r_blame);
    ]

let totals_json (results : E.result list) =
  let acct = Account.create () in
  let proc = VS.create_proc () in
  let global = VS.create_global () in
  let fault = Histogram.create () in
  let prefetch = Histogram.create () in
  let response = Histogram.create () in
  List.iter
    (fun (r : E.result) ->
      Account.add_to acct r.E.r_account;
      VS.add_proc proc r.E.r_app_stats;
      VS.add_global global r.E.r_global;
      Histogram.merge ~into:fault r.E.r_fault_hist;
      Histogram.merge ~into:prefetch r.E.r_prefetch_hist;
      Option.iter (Histogram.merge ~into:response) r.E.r_response_hist)
    results;
  Obj
    [
      ("cells", int (List.length results));
      ( "elapsed_ns",
        int (List.fold_left (fun acc (r : E.result) -> acc + r.E.r_elapsed) 0 results) );
      ("breakdown", breakdown_json (E.breakdown_of_account acct));
      ("proc", proc_json proc);
      ("global", global_json global);
      ("fault_hist", hist_json fault);
      ("prefetch_hist", hist_json prefetch);
      ("response_hist", hist_json response);
    ]

(* The version {!Metrics_io.header} carries, and how it grew:
   v2: cells gained "governor" and "chaos" objects (null when absent).
   v3: cells gained "trace_dropped" and the page-lifecycle "ledger" object
   (wasted-work taxonomy + per-directive-site efficacy table).
   v4: histograms gained "p999_ns" and cells gained the "serving" object
   (open-loop server cells: offered load, SLO attainment, response
   percentiles; null for batch cells).
   v5: cells gained the "blame" object (serve cells: per-request
   response-time decomposition — additive queue/index/value/cpu/compute
   component histograms, percentile-band blame table, prefetch race and
   demand-disk attribution; null for batch cells).
   v6: cells gained the always-present "disk" object (swap-volume reads,
   writes, deadline misses and demand-over-background bypasses — the
   timeout counter previously surfaced only inside chaos cells) and the
   "tiers" object (tiered-store cells: per-tier traffic rows, cross-tier
   rescues, breaker state, placement and compression amplification; null
   without a --tiers spec); the "serving" object gained the recovery mark
   and its post-mark SLO tally.
   v7: the ad-hoc "series" array became the always-present "telemetry"
   object — the unified registry's close-out: scrape count, per-series
   aggregates (name, kind, samples, last/min/mean/max; the legacy trio
   plus a "trace-dropped" counter, and the full VM/disk/tiers/runtime/
   server probe set for cells run with telemetry on) and the alert-rule
   timeline (time, rule, fire|clear, signal value). *)
let of_results ~label results =
  Obj
    (header
    @ [
        ("label", Str label);
        ("cells", Arr (List.map of_result results));
        ("totals", totals_json results);
      ])

let of_matrix (m : Figures.matrix) =
  let label =
    Printf.sprintf "%s matrix, interactive sleep %gs"
      m.Figures.mx_machine.Machine.m_name
      (float_of_int m.Figures.mx_sleep /. 1e9)
  in
  of_results ~label (Figures.matrix_results m)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let str_member k j = match member k j with Some (Str s) -> Some s | _ -> None

let int_member k j =
  match member k j with Some (Num (f, _)) -> Some (int_of_float f) | _ -> None

let float_member k j = match member k j with Some (Num (f, _)) -> Some f | _ -> None
let obj k j = Option.value (member k j) ~default:Null
let istr k j = Option.value (str_member k j) ~default:"-"
let icount k j = match int_member k j with Some i -> Report.count i | None -> "-"
let ins k j = match int_member k j with Some i -> Report.ns i | None -> "-"

let ifloat show k j =
  match float_member k j with Some f -> show f | None -> "-"

(* The cells whose [key] holds an object: the cells a section applies to. *)
let having key cells =
  List.filter (fun c -> match member key c with Some (Obj _) -> true | _ -> false) cells

let arr k j = match member k j with Some (Arr items) -> items | _ -> []

let hist_row label h =
  [ label; icount "count" h; ins "p50_ns" h; ins "p90_ns" h; ins "p99_ns" h; ins "max_ns" h ]

let render j =
  match member "cells" j with
  | Some (Arr cells) ->
      let label = Option.value (str_member "label" j) ~default:"" in
      let buf = Buffer.create 4096 in
      let fmt = Format.formatter_of_buffer buf in
      let table ~title ~header rows =
        Format.fprintf fmt "@,";
        Report.table ~title ~header ~rows fmt ()
      in
      let run c = Printf.sprintf "%s/%s" (istr "workload" c) (istr "variant" c) in
      Format.pp_open_vbox fmt 0;
      Format.fprintf fmt "Metrics: %s (%d cells)@," label (List.length cells);
      table ~title:"Execution (out-of-core application)"
        ~header:[ "run"; "user"; "system"; "io stall"; "res stall"; "elapsed"; "iters" ]
        (List.map
           (fun c ->
             let b = obj "app_breakdown" c in
             [
               run c; ins "user_ns" b; ins "system_ns" b; ins "io_stall_ns" b;
               ins "resource_stall_ns" b; ins "elapsed_ns" c; icount "iterations" c;
             ])
           cells);
      table ~title:"Demand-fault service time"
        ~header:[ "run"; "faults"; "p50"; "p90"; "p99"; "max" ]
        (List.map (fun c -> hist_row (run c) (obj "fault_hist" c)) cells);
      table ~title:"Prefetch service time"
        ~header:[ "run"; "prefetches"; "p50"; "p90"; "p99"; "max" ]
        (List.map (fun c -> hist_row (run c) (obj "prefetch_hist" c)) cells);
      let with_response = having "response_hist" cells in
      if with_response <> [] then
        table ~title:"Interactive response time"
          ~header:[ "run"; "sweeps"; "p50"; "p90"; "p99"; "max" ]
          (List.map (fun c -> hist_row (run c) (obj "response_hist" c)) with_response);
      let with_serving = having "serving" cells in
      if with_serving <> [] then
        table ~title:"Serving tail latency (open-loop, SLO from arrival)"
          ~header:
            [ "run"; "offered"; "served"; "queue max"; "p50"; "p99"; "p999"; "max"; "SLO" ]
          (List.map
             (fun c ->
               let s = obj "serving" c in
               let h = obj "response_hist" s in
               [
                 run c;
                 ifloat (fun f -> Printf.sprintf "%s rps" (Report.f1 f)) "offered_rps" s;
                 icount "recorded" s;
                 icount "max_queue" s;
                 ins "p50_ns" h;
                 ins "p99_ns" h;
                 ins "p999_ns" h;
                 ins "max_ns" h;
                 ifloat Report.pct "slo_attainment" s;
               ])
             with_serving);
      let with_blame = having "blame" cells in
      if with_blame <> [] then
        table ~title:"Tail blame (mean per request, by percentile band)"
          ~header:
            [
              "run"; "band"; "reqs"; "queue"; "index"; "value"; "cpu wait"; "compute";
              "response";
            ]
          (List.concat_map
             (fun c ->
               List.map
                 (fun bd ->
                   let n = max 1 (Option.value (int_member "count" bd) ~default:0) in
                   let per k =
                     match int_member k bd with Some v -> Report.ns (v / n) | None -> "-"
                   in
                   [
                     run c; istr "band" bd; icount "count" bd; per "queue_ns";
                     per "index_ns"; per "value_ns"; per "cpu_ns"; per "compute_ns";
                     per "response_ns";
                   ])
                 (arr "bands" (obj "blame" c)))
             with_blame);
      table ~title:"Release accuracy"
        ~header:
          [
            "run"; "requested"; "skipped"; "freed (d/r)"; "rescued (d/r)";
            "rescue ratio (d/r)"; "stale";
          ]
        (List.map
           (fun c ->
             let ra = obj "release_accuracy" c in
             let pair show k1 k2 = Printf.sprintf "%s/%s" (show k1 ra) (show k2 ra) in
             [
               run c;
               icount "requested" ra;
               icount "skipped" ra;
               pair icount "freed_daemon" "freed_releaser";
               pair icount "rescued_daemon" "rescued_releaser";
               pair (ifloat Report.pct) "rescue_ratio_daemon" "rescue_ratio_releaser";
               icount "stale_dropped" ra;
             ])
           cells);
      let with_disk = having "disk" cells in
      if with_disk <> [] then
        table ~title:"Swap volume (per-request deadline + arm classes)"
          ~header:[ "run"; "reads"; "writes"; "timeouts"; "bypasses"; "busy" ]
          (List.map
             (fun c ->
               let d = obj "disk" c in
               [
                 run c; icount "reads" d; icount "writes" d; icount "timeouts" d;
                 icount "bypasses" d; ins "busy_ns" d;
               ])
             with_disk);
      let with_tiers = having "tiers" cells in
      if with_tiers <> [] then begin
        table ~title:"Backing tiers (traffic + breaker)"
          ~header:
            [
              "run"; "tier"; "reads"; "writes"; "timeouts"; "retries"; "rejects";
              "failovers"; "breaker flips";
            ]
          (List.concat_map
             (fun c ->
               List.map
                 (fun r ->
                   [
                     run c; istr "tier" r; icount "reads" r; icount "writes" r;
                     icount "timeouts" r; icount "retries" r; icount "rejects" r;
                     icount "failovers" r; icount "breaker_transitions" r;
                   ])
                 (arr "tiers" (obj "tiers" c)))
             with_tiers);
        table ~title:"Tier routing (rescues + breaker close-out)"
          ~header:[ "run"; "rescues"; "breaker"; "placed"; "zram ampl"; "tier-buffered" ]
          (List.map
             (fun c ->
               let ti = obj "tiers" c in
               [
                 run c;
                 icount "rescues" ti;
                 (match int_member "breaker_state" ti with
                 | Some 0 -> "closed"
                 | Some 1 -> "half-open"
                 | Some 2 -> "open"
                 | _ -> "-");
                 icount "placed" ti;
                 ifloat Report.f1 "zram_amplification" ti;
                 icount "tier_buffered" ti;
               ])
             with_tiers)
      end;
      let with_ledger = having "ledger" cells in
      if with_ledger <> [] then begin
        table ~title:"Wasted work (page-lifecycle ledger)"
          ~header:
            [
              "run"; "pages"; "useless pf"; "late pf"; "early rel (resc/refault)";
              "useful rel"; "unnecessary rel"; "trace drops";
            ]
          (List.map
             (fun c ->
               let l = obj "ledger" c in
               [
                 run c;
                 icount "pages_tracked" l;
                 icount "useless_prefetches" l;
                 icount "late_prefetches" l;
                 Printf.sprintf "%s/%s" (icount "early_rescued" l)
                   (icount "early_refaulted" l);
                 icount "useful_releases" l;
                 icount "unnecessary_releases" l;
                 icount "trace_dropped" c;
               ])
             with_ledger);
        let site_rows =
          List.concat_map
            (fun c ->
              List.filter_map
                (fun r ->
                  (* only rows with activity: keep the report short *)
                  let any k = match int_member k r with Some v -> v > 0 | None -> false in
                  if any "pf_sent" || any "rel_hints" then
                    Some
                      [
                        run c;
                        icount "site" r;
                        Printf.sprintf "%s %s" (istr "kind" r) (istr "desc" r);
                        Printf.sprintf "%s/%s" (icount "pf_issued" r) (icount "pf_dropped" r);
                        Printf.sprintf "%s/%s" (icount "pf_referenced" r)
                          (icount "pf_useless" r);
                        ins "pf_saved_ns" r;
                        Printf.sprintf "%s/%s" (icount "rel_sent" r) (icount "rel_freed" r);
                        Printf.sprintf "%s/%s" (icount "rel_rescued" r)
                          (icount "rel_refaulted" r);
                        icount "static_priority" r;
                        ifloat (fun f -> Report.pct (f /. 100.0)) "refault_pct" r;
                      ]
                  else None)
                (arr "sites" (obj "ledger" c)))
            with_ledger
        in
        if site_rows <> [] then
          table ~title:"Per-site efficacy"
            ~header:
              [
                "run"; "site"; "directive"; "pf iss/drop"; "pf ref/useless"; "saved";
                "rel sent/freed"; "resc/refault"; "prio"; "refault%";
              ]
            site_rows
      end;
      table ~title:"Telemetry (min / mean / max / last)"
        ~header:[ "run"; "series"; "kind"; "samples"; "min"; "mean"; "max"; "last" ]
        (List.concat_map
           (fun c ->
             List.map
               (fun s ->
                 let f k = ifloat Report.f1 k s in
                 [
                   run c; istr "name" s; istr "kind" s; icount "samples" s; f "min";
                   f "mean"; f "max"; f "last";
                 ])
               (arr "series" (obj "telemetry" c)))
           cells);
      let alert_rows =
        List.concat_map
          (fun c ->
            List.map
              (fun a ->
                [
                  run c; ins "time_ns" a; istr "rule" a; istr "event" a;
                  ifloat Report.f1 "value" a;
                ])
              (arr "alerts" (obj "telemetry" c)))
          cells
      in
      if alert_rows <> [] then
        table ~title:"Alert timeline" ~header:[ "run"; "time"; "rule"; "event"; "value" ]
          alert_rows;
      let with_chaos = having "chaos" cells in
      if with_chaos <> [] then begin
        table ~title:"Fault injection"
          ~header:
            [
              "run"; "faults"; "retries"; "backoff"; "timeouts"; "slow"; "stall (rel/dmn)";
              "dropped"; "pressure";
            ]
          (List.map
             (fun c ->
               let ch = obj "chaos" c in
               [
                 run c;
                 icount "disk_faults" ch;
                 icount "disk_retries" ch;
                 ins "disk_backoff_ns" ch;
                 icount "disk_timeouts" ch;
                 icount "slow_requests" ch;
                 Printf.sprintf "%s/%s" (ins "releaser_stall_ns" ch)
                   (ins "daemon_stall_ns" ch);
                 icount "directives_dropped" ch;
                 Printf.sprintf "%s spikes, %s pages" (icount "pressure_spikes" ch)
                   (icount "pressure_pages" ch);
               ])
             with_chaos);
        table ~title:"Degradation governor"
          ~header:
            [
              "run"; "level"; "degrades"; "recoveries"; "suppressed";
              "os prefetch (done/dropped)";
            ]
          (List.map
             (fun c ->
               let g = obj "governor" c in
               [
                 run c;
                 icount "level" g;
                 icount "degrades" g;
                 icount "recoveries" g;
                 icount "suppressed" g;
                 Printf.sprintf "%s/%s" (icount "prefetch_os_done" g)
                   (icount "prefetch_os_dropped" g);
               ])
             (having "governor" with_chaos))
      end;
      (match member "totals" j with
      | Some t ->
          table ~title:"Totals (all cells)"
            ~header:[ ""; "count"; "p50"; "p90"; "p99"; "max" ]
            (List.filter_map
               (fun (label, key) ->
                 match member key t with
                 | Some (Obj _ as h) -> Some (hist_row label h)
                 | _ -> None)
               [
                 ("demand faults", "fault_hist");
                 ("prefetches", "prefetch_hist");
                 ("interactive sweeps", "response_hist");
               ])
      | None -> ());
      Format.pp_close_box fmt ();
      Format.pp_print_flush fmt ();
      Ok (Buffer.contents buf)
  | _ -> Error "metrics document has no \"cells\" array"
