(* Tests for the scenario registry and the gate's verdict logic, without
   running any full scenario: the registry and the committed baselines
   correspond one to one, the compare step fails on a missing baseline or
   one perturbed number and ignores PERF's wall-clock members, a raising
   scenario becomes a gate failure rather than an escaping exception, and
   [memhog figures ID] runs exactly the experiments it names. *)

module Scenario = Memhog_core.Scenario
module Mio = Memhog_core.Metrics_io

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
  check_bool "unknown id is refused" true (rc <> 0)

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
          Alcotest.test_case "raising scenario fails the gate" `Quick
            test_raising_assertion_fails_gate;
          Alcotest.test_case "figures runs only the selected ids" `Quick
            test_figures_runs_only_selected;
        ] );
    ]
