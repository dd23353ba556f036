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
   frees of never-released pages, ...  The defaults are the domain the OS
   produces: pids 0..2 and sites -1..3. *)
let event_gen ?(vpn = QCheck.Gen.int_bound 7) ?(pid = QCheck.Gen.int_bound 2)
    ?(site = QCheck.Gen.int_range (-1) 3) () =
  let open QCheck.Gen in
  let owner = pid in
  let stream = pid in
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
            vpn site (int_bound 5) );
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

let events_arb gen =
  QCheck.make
    ~print:(fun evs ->
      String.concat ";"
        (List.map (fun (s, ev) -> Printf.sprintf "%d:%s" s (Trace.event_name ev)) evs))
    QCheck.Gen.(list_size (0 -- 400) gen)

let feed evs =
  let l = Ledger.create () in
  List.iteri
    (fun i (stream, ev) -> Ledger.observe l ~time:(i * 10) ~stream ev)
    evs;
  l

let prop_observe_total_and_legal =
  QCheck.Test.make
    ~name:"observe never raises; summary legal from any interleaving"
    ~count:500 (events_arb (event_gen ())) (fun evs ->
      let l = feed evs in
      let s1 = Ledger.summarize l in
      let s2 = Ledger.summarize l in
      Ledger.invariants_ok s1 && s1 = s2)

(* Differential: the dense ledger summarizes exactly like the hash-table
   reference model.  Most vpns collide in 0..7; the rest spread over
   0..5000 so the per-pid rows grow many times mid-run. *)
let prop_matches_model =
  let vpn = QCheck.Gen.(frequency [ (3, int_bound 7); (1, int_bound 5000) ]) in
  QCheck.Test.make ~name:"summary equals the hash-table reference model"
    ~count:500 (events_arb (event_gen ~vpn ())) (fun evs ->
      let m = Ledger_model.create () in
      List.iter (fun (stream, ev) -> Ledger_model.observe m ~stream ev) evs;
      Ledger.summarize (feed evs) = Ledger_model.summarize m)

(* Keys outside the OS's domain (negative pids and vpns, sites below
   no_site) must not make [observe] raise or the summary illegal. *)
let prop_out_of_domain_total =
  let gen =
    event_gen
      ~vpn:QCheck.Gen.(int_range (-3) 7)
      ~pid:QCheck.Gen.(int_range (-8) 2)
      ~site:QCheck.Gen.(oneofl [ -7; -2; -1; 0; 3 ])
      ()
  in
  QCheck.Test.make ~name:"out-of-domain keys: total and legal" ~count:300
    (events_arb gen) (fun evs ->
      Ledger.invariants_ok (Ledger.summarize (feed evs)))

(* The same keys, one at a time: the global tallies count them, no page
   state is kept, and a site below no_site lands in the unattributed row. *)
let test_out_of_domain_keys () =
  let l =
    feed
      [
        (Trace.kernel_stream, Trace.Hard_fault { vpn = 3 });
        (0, Trace.Zero_fill { vpn = -1 });
        (0, Trace.Prefetch_issued { vpn = -5; site = -7 });
        (-2, Trace.Releaser_free { vpn = 4; owner = -1; site = 2 });
      ]
  in
  let s = Ledger.summarize l in
  check_int "hard faults" 1 s.Ledger.ls_hard_faults;
  check_int "zero fills" 1 s.Ledger.ls_zero_fills;
  check_int "prefetches issued" 1 s.Ledger.ls_prefetches_issued;
  check_int "releases freed" 1 s.Ledger.ls_releases_freed;
  check_int "no page tracked" 0 s.Ledger.ls_pages_tracked;
  check_int "no unnecessary release" 0 s.Ledger.ls_unnecessary_releases;
  Alcotest.(check (list (pair int int)))
    "rows" [ (-1, 1); (2, 0) ]
    (List.map
       (fun r -> (r.Ledger.sr_site, r.Ledger.sr_pf_issued))
       s.Ledger.ls_sites);
  check_bool "summary invariants" true (Ledger.invariants_ok s)

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
          Alcotest.test_case "out-of-domain keys" `Quick test_out_of_domain_keys;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_observe_total_and_legal;
              prop_matches_model;
              prop_out_of_domain_total;
            ]
      );
    ]
