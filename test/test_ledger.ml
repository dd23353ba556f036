(* Tests for the page-lifecycle ledger: byte-identical serialization at any
   --jobs, totality and legality of [observe] under arbitrary event
   interleavings, and exact reconciliation against the VM's own counters. *)

module Trace = Memhog_sim.Trace
module Ledger = Memhog_sim.Ledger
module E = Memhog_core.Experiment
module Machine = Memhog_core.Machine
module Metrics = Memhog_core.Metrics
module Mio = Memhog_core.Metrics_io
module Pool = Memhog_core.Pool
module VS = Memhog_vm.Vm_stats

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let run_cell () =
  let wl = Memhog_workloads.Workload.find "EMBAR" in
  E.run
    (E.setup ~machine:Machine.quick ~workload:wl ~variant:E.B ~iterations:1 ())

(* The full canonical metrics document embeds the ledger object, so string
   equality here is the acceptance criterion "the ledger object is
   byte-identical across --jobs" (and then some). *)
let render r =
  Mio.to_string (Metrics.of_results ~label:"ledger" [ r ])

let test_jobs_determinism () =
  let serial = render (run_cell ()) in
  let pooled = Pool.map ~jobs:8 (fun () -> render (run_cell ())) [ (); () ] in
  List.iteri
    (fun i s -> check_str (Printf.sprintf "pooled replica %d" i) serial s)
    pooled

let test_reconciles_with_vm_stats () =
  let r = run_cell () in
  let l = r.E.r_ledger in
  let s = r.E.r_app_stats in
  check_int "hard faults" s.VS.hard_faults l.Ledger.ls_hard_faults;
  check_int "soft faults" s.VS.soft_faults l.Ledger.ls_soft_faults;
  check_int "validation faults" s.VS.validation_faults
    l.Ledger.ls_validation_faults;
  check_int "zero fills" s.VS.zero_fills l.Ledger.ls_zero_fills;
  check_int "rescues"
    (s.VS.rescued_daemon + s.VS.rescued_releaser)
    l.Ledger.ls_rescues;
  check_int "prefetches issued" s.VS.prefetches_issued
    l.Ledger.ls_prefetches_issued;
  check_int "prefetches dropped" s.VS.prefetches_dropped
    l.Ledger.ls_prefetches_dropped;
  check_int "releases freed" s.VS.freed_by_releaser l.Ledger.ls_releases_freed;
  check_int "releases skipped" s.VS.releases_skipped
    l.Ledger.ls_releases_skipped;
  check_bool "summary invariants" true (Ledger.invariants_ok l)

let test_null_and_empty () =
  check_bool "null disabled" false (Ledger.enabled Ledger.null);
  Ledger.observe Ledger.null ~time:0 ~stream:0 (Trace.Hard_fault { vpn = 1 });
  let s = Ledger.summarize Ledger.null in
  check_bool "null stays empty" true (s = Ledger.empty_summary);
  check_bool "empty summary legal" true
    (Ledger.invariants_ok Ledger.empty_summary);
  check_int "empty has no sites" 0 (List.length Ledger.empty_summary.ls_sites)

(* ------------------------------------------------------------------ *)
(* Property: observe is total, the summary legal, summarize pure       *)
(* ------------------------------------------------------------------ *)

(* A small alphabet (few vpns, sites, owners) maximizes state-machine
   collisions: prefetches over releases, rescues of never-freed pages,
   frees of never-released pages, ... *)
let event_gen =
  let open QCheck.Gen in
  let vpn = int_bound 7 in
  let site = map (fun s -> s - 1) (int_bound 4) (* -1 .. 3 *) in
  let owner = int_bound 2 in
  let stream = int_bound 2 in
  let ns = int_bound 10_000 in
  let ev =
    frequency
      [
        (3, map (fun vpn -> Trace.Hard_fault { vpn }) vpn);
        (2, map (fun vpn -> Trace.Soft_fault { vpn }) vpn);
        (2, map (fun vpn -> Trace.Validation_fault { vpn }) vpn);
        (1, map (fun vpn -> Trace.Zero_fill { vpn }) vpn);
        ( 2,
          map3
            (fun vpn for_prefetch site ->
              Trace.Rescue { vpn; for_prefetch; site })
            vpn bool site );
        (3, map2 (fun vpn site -> Trace.Rt_prefetch_sent { vpn; site }) vpn site);
        (3, map2 (fun vpn site -> Trace.Prefetch_issued { vpn; site }) vpn site);
        (2, map2 (fun vpn site -> Trace.Prefetch_dropped { vpn; site }) vpn site);
        (1, map2 (fun vpn site -> Trace.Prefetch_raced { vpn; site }) vpn site);
        ( 3,
          map3 (fun vpn site ns -> Trace.Prefetch_done { vpn; site; ns }) vpn
            site ns );
        ( 2,
          map3
            (fun vpn site priority -> Trace.Rt_release_hint { vpn; site; priority })
            vpn site (int_bound 5) );
        ( 1,
          map2
            (fun vpn site -> Trace.Rt_release_filtered { vpn; reason = "same"; site })
            vpn site );
        ( 1,
          map3
            (fun vpn tag priority -> Trace.Rt_release_buffered { vpn; tag; priority })
            vpn (int_bound 3) (int_bound 5) );
        (1, map2 (fun vpn site -> Trace.Rt_stale_dropped { vpn; site }) vpn site);
        (3, map2 (fun vpn site -> Trace.Rt_release_sent { vpn; site }) vpn site);
        ( 2,
          map3 (fun vpn owner site -> Trace.Release_skipped { vpn; owner; site })
            vpn owner site );
        ( 3,
          map3 (fun vpn owner site -> Trace.Releaser_free { vpn; owner; site })
            vpn owner site );
        (2, map2 (fun vpn owner -> Trace.Daemon_steal { vpn; owner }) vpn owner);
        (2, map2 (fun vpn owner -> Trace.Frame_reused { vpn; owner }) vpn owner);
        (1, map (fun count -> Trace.Rt_release_issued { count }) (int_bound 9));
        (1, map (fun pages -> Trace.Free_depth { pages }) (int_bound 99));
      ]
  in
  pair stream ev

let events_arb =
  QCheck.make
    ~print:(fun evs ->
      String.concat ";"
        (List.map (fun (s, ev) -> Printf.sprintf "%d:%s" s (Trace.event_name ev)) evs))
    QCheck.Gen.(list_size (0 -- 400) event_gen)

let prop_observe_total_and_legal =
  QCheck.Test.make
    ~name:"observe never raises; summary legal from any interleaving"
    ~count:500 events_arb (fun evs ->
      let l = Ledger.create () in
      List.iteri
        (fun i (stream, ev) -> Ledger.observe l ~time:(i * 10) ~stream ev)
        evs;
      let s1 = Ledger.summarize l in
      let s2 = Ledger.summarize l in
      Ledger.invariants_ok s1 && s1 = s2)

let () =
  Alcotest.run "memhog_ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "null and empty" `Quick test_null_and_empty;
          Alcotest.test_case "reconciles with Vm_stats" `Quick
            test_reconciles_with_vm_stats;
          Alcotest.test_case "--jobs 1 == --jobs 8 (byte-identical)" `Quick
            test_jobs_determinism;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_observe_total_and_legal ]
      );
    ]
