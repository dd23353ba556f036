(* Tests for the scenario registry, the gate's verdict logic and the CLI
   front end, without running any full scenario: the registry and the
   committed baselines correspond one to one, the compare step fails on a
   missing baseline or one perturbed number and ignores PERF's wall-clock
   members, a raising scenario becomes a gate failure rather than an
   escaping exception, ledger reconciliation holds on a co-run cell,
   [memhog figures ID] runs exactly the experiments it names, and the CLI
   answers bad numbers and retired verbs with a usage error. *)

module Scenario = Memhog_core.Scenario
module Mio = Memhog_core.Metrics_io
module E = Memhog_core.Experiment

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_strs = Alcotest.(check (list string))
let baselines = "../bench"

let scenario name =
  List.find (fun s -> s.Scenario.name = name) Scenario.all

let load name =
  match Mio.parse_file ~path:(Filename.concat baselines (Scenario.baseline_file name)) with
  | Ok j -> j
  | Error e -> Alcotest.fail e

(* Apply [f] to the numbers under member [key], anywhere in the document:
   every one, or only the first with [~first:true]. *)
let perturb ?(first = false) ~key f j =
  let hits = ref 0 in
  let rec go under = function
    | Mio.Num (v, _) when under && not (first && !hits > 0) ->
        incr hits;
        Mio.num_of_float (f v)
    | Mio.Obj kvs -> Mio.Obj (List.map (fun (k, v) -> (k, go (under || k = key) v)) kvs)
    | Mio.Arr xs -> Mio.Arr (List.map (go under) xs)
    | j -> j
  in
  let j = go false j in
  if !hits = 0 then Alcotest.failf "no number under %S" key;
  j

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let is_ok = function Ok () -> true | Error _ -> false

(* Exit code of the CLI run with [args], output discarded. *)
let cli args =
  Sys.command (Printf.sprintf "../bin/memhog_cli.exe %s > /dev/null 2>&1" args)

let test_registry_matches_bench () =
  let committed =
    In_channel.with_open_bin "baselines.txt" In_channel.input_all
    |> String.split_on_char ' ' |> List.map String.trim
    |> List.filter (( <> ) "")
    |> List.map Filename.basename |> List.sort compare
  in
  let registered =
    List.filter_map
      (fun s -> Option.map Scenario.baseline_file s.Scenario.baseline)
      Scenario.all
    |> List.sort compare
  in
  check_strs "registry baselines == bench/*_metrics.json" committed registered;
  check_strs "scenario names"
    [ "smoke"; "chaos"; "audit"; "serve"; "tiers"; "obs"; "perf" ]
    (List.map (fun s -> s.Scenario.name) Scenario.all);
  (* The files CI uploads from the gate's output directory. *)
  check_strs "artifacts"
    [ "BENCH_matrix.json"; "BLAME_slowest.trace.json"; "OBS_openmetrics.txt" ]
    (List.concat_map (fun s -> s.Scenario.artifacts) Scenario.all);
  List.iter
    (fun s ->
      check_bool
        (s.Scenario.name ^ " is gated by a baseline or an assertion")
        true
        (s.Scenario.baseline <> None || s.Scenario.assertions <> []))
    Scenario.all

let test_compare_missing_baseline () =
  let serve = scenario "serve" in
  check_bool "committed SERVE matches itself" true
    (is_ok (Scenario.compare_document serve ~baselines (load "SERVE")));
  check_bool "missing baseline fails" false
    (is_ok (Scenario.compare_document serve ~baselines:"no-such-dir" (load "SERVE")))

let test_compare_perturbed_number () =
  let doc = perturb ~first:true ~key:"cells" (fun v -> v +. 1.0) (load "SERVE") in
  match Scenario.compare_document (scenario "serve") ~baselines doc with
  | Ok () -> Alcotest.fail "a perturbed number passed the gate"
  | Error report ->
      check_bool "report names the drifted path" true (contains report "cells[0]")

let test_compare_perf_ignores_wall () =
  let perf = scenario "perf" in
  let base = load "PERF" in
  check_bool "wall-only change passes" true
    (is_ok
       (Scenario.compare_document perf ~baselines
          (perturb ~key:"wall" (fun v -> (v *. 3.0) +. 1.0) base)));
  check_bool "work change fails" false
    (is_ok
       (Scenario.compare_document perf ~baselines
          (perturb ~first:true ~key:"work" (fun v -> v +. 1.0) base)))

let test_raising_assertion_fails_gate () =
  let out = Filename.temp_dir "memhog-gate" "" in
  let fake ~name ?baseline run assertion =
    Scenario.make ~name ~cells:"none" ?baseline
      ~assertions:[ ("raises", assertion) ]
      ~report:(fun () -> "") run
  in
  let quiet ~machine:_ ~jobs:_ ~log:_ = () in
  let failures =
    Scenario.gate ~baselines ~out
      ~scenarios:
        [
          fake ~name:"failure" quiet (fun () -> failwith "boom");
          fake ~name:"not-found" quiet (fun () -> raise Not_found);
          fake ~name:"run-raises" (fun ~machine:_ ~jobs:_ ~log:_ -> invalid_arg "run") ignore;
          fake ~name:"no-baseline" ~baseline:("NO_SUCH", fun () -> Mio.Null) quiet ignore;
          fake ~name:"passes" quiet ignore;
        ]
      ()
  in
  Array.iter (fun f -> Sys.remove (Filename.concat out f)) (Sys.readdir out);
  Sys.rmdir out;
  check_strs "failing scenarios"
    [ "failure"; "not-found"; "run-raises"; "no-baseline" ]
    (List.map fst failures)

(* [memhog compare --tolerance T] against a copy whose p99s all drifted:
   a NaN, infinite or negative tolerance is a usage error (cmdliner's exit
   124), never a silent "metrics match". *)
let test_compare_refuses_bad_tolerance () =
  let drifted = Filename.temp_file "memhog-drifted" ".json" in
  Mio.write_json ~path:drifted (perturb ~key:"p99_ns" (fun v -> v +. 1.0) (load "SERVE"));
  let compare t =
    cli
      (Printf.sprintf "compare --tolerance=%s %s %s" t
         (Filename.quote (Filename.concat baselines (Scenario.baseline_file "SERVE")))
         (Filename.quote drifted))
  in
  let codes = List.map (fun t -> (t, compare t)) [ "0"; "nan"; "inf"; "-1" ] in
  Sys.remove drifted;
  List.iter
    (fun (t, expected) ->
      check_int (Printf.sprintf "--tolerance %s exit code" t) expected (List.assoc t codes))
    [ ("0", 1); ("nan", 124); ("inf", 124); ("-1", 124) ]

(* The ledger covers the whole machine, so on a cell with the interactive
   task its totals must match the hog's and the task's counters summed,
   not the hog's alone. *)
let test_reconcile_co_run () =
  let r =
    E.run
      (E.setup ~machine:Memhog_core.Machine.quick
         ~workload:(Memhog_workloads.Workload.find "MATVEC")
         ~variant:E.R ~interactive_sleep:(Memhog_sim.Time_ns.sec 2)
         ~min_sim_time:(Memhog_sim.Time_ns.sec 45) ())
  in
  check_bool "the interactive task faulted" true
    (match r.E.r_inter_stats with
    | Some s -> s.Memhog_vm.Vm_stats.hard_faults > 0
    | None -> false);
  List.iter
    (fun (name, ledger, vm) -> check_int (name ^ ": ledger vs vm") ledger vm)
    (Scenario.reconcile r)

(* Section headers the figures verb prints: one line per experiment id,
   between two rules of '='. *)
let figures_sections args =
  let out = Filename.temp_file "memhog-figures" ".txt" in
  let rc =
    Sys.command
      (Printf.sprintf "../bin/memhog_cli.exe figures --quick %s > %s 2> /dev/null" args
         (Filename.quote out))
  in
  let lines = In_channel.with_open_bin out In_channel.input_all |> String.split_on_char '\n' in
  Sys.remove out;
  let rule = String.make 72 '=' in
  let rec sections = function
    | r1 :: id :: r2 :: rest when r1 = rule && r2 = rule -> id :: sections rest
    | _ :: rest -> sections rest
    | [] -> []
  in
  (rc, sections lines)

let test_figures_runs_only_selected () =
  let rc, ids = figures_sections "table1" in
  check_int "exit code" 0 rc;
  check_strs "figures table1" [ "table1" ] ids;
  let rc, ids = figures_sections "table2 table1" in
  check_int "exit code" 0 rc;
  check_strs "figures table2 table1" [ "table2"; "table1" ] ids;
  let rc, ids = figures_sections "table1 --metrics m.json" in
  check_bool "--metrics without a matrix figure is refused" true (rc <> 0 && ids = []);
  let rc, _ = figures_sections "no-such-figure" in
  check_bool "unknown id is refused" true (rc <> 0);
  let rc, ids = figures_sections "ext-serve" in
  check_int "ext-serve exit code" 0 rc;
  check_strs "figures ext-serve" [ "ext-serve" ] ids

(* The verbs listed in the COMMANDS section of [memhog --help=plain]: the
   lines indented by exactly seven spaces. *)
let verbs () =
  let out = Filename.temp_file "memhog-help" ".txt" in
  let rc =
    Sys.command
      (Printf.sprintf "../bin/memhog_cli.exe --help=plain > %s" (Filename.quote out))
  in
  let lines = In_channel.with_open_bin out In_channel.input_all |> String.split_on_char '\n' in
  Sys.remove out;
  check_int "memhog --help exit code" 0 rc;
  let rec section = function
    | "COMMANDS" :: rest -> commands rest
    | _ :: rest -> section rest
    | [] -> []
  and commands = function
    | l :: rest when String.length l > 7 && String.sub l 0 7 = String.make 7 ' '
                     && l.[7] <> ' ' ->
        List.hd (String.split_on_char ' ' (String.sub l 7 (String.length l - 7)))
        :: commands rest
    | l :: rest when l = "" || l.[0] = ' ' -> commands rest
    | _ -> []
  in
  section lines

let test_help_lists_verbs () =
  check_strs "memhog --help verbs"
    [ "compare"; "compile"; "figures"; "gate"; "report"; "run"; "top" ]
    (List.sort compare (verbs ()))

(* Every verb's help renders cleanly: exit 0 and no cmdliner complaint
   about its own doc strings (such as an illegal escape) on stderr. *)
let test_help_renders () =
  List.iter
    (fun verb ->
      let err = Filename.temp_file "memhog-help" ".err" in
      let rc =
        Sys.command
          (Printf.sprintf "../bin/memhog_cli.exe %s --help=plain > /dev/null 2> %s"
             verb (Filename.quote err))
      in
      let stderr = In_channel.with_open_bin err In_channel.input_all in
      Sys.remove err;
      check_int (verb ^ " --help exit code") 0 rc;
      check_bool (verb ^ " --help: no cmdliner error") false
        (contains stderr "cmdliner error"))
    (verbs ())

(* A bad number is a usage error (cmdliner's exit 124) before anything
   runs: no zero-pass run, no crash inside the engine, server or sleep.
   [top] gets an existing directory, so only the number can be refused. *)
let test_bad_numbers_refused () =
  (* A two-sample dump: the frame delay of [top] is (span / 120) / speed,
     so a tiny positive speed asks for an infinite sleep. *)
  let dump = Filename.temp_dir "memhog-top" "" in
  Out_channel.with_open_text (Filename.concat dump "series.csv") (fun oc ->
      output_string oc "series,time_ns,value\nfree,100000000,5\nfree,200000000,7\n");
  List.iter
    (fun args -> check_int (args ^ " exit code") 124 (cli args))
    [
      "run --quick -n 0"; "run --quick --iterations=-2";
      "run --quick --interactive=-1"; "run --quick --interactive nan";
      "run --quick --interactive inf"; "run --quick --serve 0";
      "run --quick --serve nan"; "run --quick --serve=-5";
      "top --width 0 ."; "top --width=-4 ."; "top --speed nan .";
      "top --speed=-1 ."; "top --speed 1e-300 " ^ Filename.quote dump;
      "figures --quick --jobs 0 table1"; "figures --quick --jobs abc table1";
    ];
  check_int "top --speed 0 on the same dump" 0 (cli ("top --speed 0 " ^ Filename.quote dump));
  Sys.remove (Filename.concat dump "series.csv");
  Sys.rmdir dump

(* The retired verbs, and [run]'s retired series file, are usage errors. *)
let test_retired_front_ends_refused () =
  List.iter
    (fun args -> check_int (args ^ " exit code") 124 (cli args))
    [
      "list"; "machine"; "sweep EMBAR"; "serve --quick"; "tiers --quick";
      "audit EMBAR"; "perf --quick"; "run --quick --series s.csv";
      "run --quick --csv s.csv";
    ]

let () =
  Alcotest.run "memhog_scenario"
    [
      ( "scenario",
        [
          Alcotest.test_case "registry matches bench baselines" `Quick
            test_registry_matches_bench;
          Alcotest.test_case "compare fails on a missing baseline" `Quick
            test_compare_missing_baseline;
          Alcotest.test_case "compare fails on one perturbed number" `Quick
            test_compare_perturbed_number;
          Alcotest.test_case "compare ignores PERF wall members" `Quick
            test_compare_perf_ignores_wall;
          Alcotest.test_case "compare refuses a non-finite tolerance" `Quick
            test_compare_refuses_bad_tolerance;
          Alcotest.test_case "raising scenario fails the gate" `Quick
            test_raising_assertion_fails_gate;
          Alcotest.test_case "figures runs only the selected ids" `Quick
            test_figures_runs_only_selected;
          Alcotest.test_case "ledger reconciles on a co-run cell" `Quick
            test_reconcile_co_run;
          Alcotest.test_case "help lists exactly the seven verbs" `Quick
            test_help_lists_verbs;
          Alcotest.test_case "every verb's --help renders" `Quick test_help_renders;
          Alcotest.test_case "bad numbers are usage errors" `Quick
            test_bad_numbers_refused;
          Alcotest.test_case "retired verbs and flags are usage errors" `Quick
            test_retired_front_ends_refused;
        ] );
    ]
