(* Tests for the wall-clock throughput harness: the deterministic work
   projection of a PERF document must be byte-identical at any --jobs, the
   projection must strip every informational (wall-clock/environment)
   member, running with the ledger off must not perturb the work
   counters, and the ledger's allocation per event stays bounded. *)

module E = Memhog_core.Experiment
module Machine = Memhog_core.Machine
module Mio = Memhog_core.Metrics_io
module Perf = Memhog_core.Perf

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* Two small cells keep the test quick while still exercising the pool. *)
let cells =
  [
    { Perf.pc_workload = "MATVEC"; pc_variant = E.O };
    { Perf.pc_workload = "EMBAR"; pc_variant = E.B };
  ]

let projection ~jobs =
  Mio.to_string
    (Perf.work_projection
       (Perf.to_json (Perf.run ~cells ~machine:Machine.quick ~jobs ())))

let test_jobs_determinism () =
  check_str "--jobs 1 == --jobs 8" (projection ~jobs:1) (projection ~jobs:8)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_projection_strips_wall () =
  let t =
    Perf.run ~cells:[ List.hd cells ] ~machine:Machine.quick ~jobs:1 ()
  in
  let full = Mio.to_string (Perf.to_json t) in
  let proj = Mio.to_string (Perf.work_projection (Perf.to_json t)) in
  check_bool "full document has wall data" true (contains full "\"wall\"");
  check_bool "projection drops wall" false (contains proj "wall");
  check_bool "projection drops jobs" false (contains proj "\"jobs\"");
  check_bool "projection keeps work" true (contains proj "\"events\"")

let test_ledger_off_same_work () =
  let run ledger =
    List.hd
      (Perf.run ~cells:[ List.hd cells ] ~ledger ~machine:Machine.quick ~jobs:1
         ())
        .Perf.p_cells
  in
  let on = run true and off = run false in
  check_int "events" on.Perf.pr_events off.Perf.pr_events;
  check_int "hard faults" on.Perf.pr_hard_faults off.Perf.pr_hard_faults;
  check_int "soft faults" on.Perf.pr_soft_faults off.Perf.pr_soft_faults;
  check_int "iterations" on.Perf.pr_iterations off.Perf.pr_iterations;
  check_int "sim ns" on.Perf.pr_sim_ns off.Perf.pr_sim_ns

(* The ledger's own cost: with the ledger on, each event may allocate at
   most 2.37 more minor words than with it off.  That covers the
   lifecycle events the emit points build for it (timeline-only events
   are built only when the ring records) plus its own bookkeeping.
   Measured on OCaml 5.1.1: MATVEC/R 2.06, EMBAR/B 1.43; the bound is the
   larger × 1.15.  Building timeline-only events for the ledger too costs
   2.70 on MATVEC/R, and keeping page state in hash tables of boxed
   records 5-6, so the bound catches a drift back to either. *)
let test_ledger_cost_bounded () =
  let cells =
    [
      { Perf.pc_workload = "MATVEC"; pc_variant = E.R };
      { Perf.pc_workload = "EMBAR"; pc_variant = E.B };
    ]
  in
  let words ledger =
    List.map
      (fun (c : Perf.cell_result) ->
        (c.Perf.pr_label, c.Perf.pr_minor_words_per_event))
      (Perf.run ~cells ~ledger ~machine:Machine.quick ~jobs:1 ()).Perf.p_cells
  in
  let on = words true and off = words false in
  List.iter2
    (fun (label, w_on) (_, w_off) ->
      check_bool
        (Printf.sprintf "%s: ledger adds %.2f words/event (%.2f -> %.2f)" label
           (w_on -. w_off) w_off w_on)
        true
        (w_on -. w_off <= 2.37))
    on off

let () =
  Alcotest.run "memhog_perf"
    [
      ( "perf",
        [
          Alcotest.test_case "--jobs 1 == --jobs 8 (work projection)" `Quick
            test_jobs_determinism;
          Alcotest.test_case "projection strips informational members" `Quick
            test_projection_strips_wall;
          Alcotest.test_case "ledger off leaves work unchanged" `Quick
            test_ledger_off_same_work;
          Alcotest.test_case "ledger costs at most 2.37 words/event" `Quick
            test_ledger_cost_bounded;
        ] );
    ]
