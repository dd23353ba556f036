(* memhog benchmark harness.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   --trace 0 measures the end-to-end metrics: host cost of simulating the
   workload and of setting it up (over repeated runs, at the reference
   host speed of {!Calib}), allocation and peak heap.  --trace 1 is a separate run that measures the per-layer metrics:
   per-layer counters, isolated per-call costs, GC pauses, and the cost of
   each observability layer by switching it on and off.  Both modes check
   every run's outputs.  The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

module E = Memhog_core.Experiment
module Machine = Memhog_core.Machine
module Trace = Memhog_sim.Trace
module Os = Memhog_vm.Os
module W = Workloads
module O = Observe

let now = Unix.gettimeofday
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
}

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" (List.map (fun w -> w.W.name) W.all)
   ^ ") --seed N --seconds S --trace 0|1 [--out DIR]");
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None and out = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := W.find v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest ->
        seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0.0 then Some s else None);
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--out" :: v :: rest -> out := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
      { workload; seed; seconds; trace; out = !out }
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let env_record a =
  [
    ("ocaml", Sys.ocaml_version);
    ("word_size", string_of_int Sys.word_size);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("host", Unix.gethostname ());
    ("machine", (W.machine ~seed:a.seed).Machine.m_name);
    ("workload", a.workload.W.name);
    ("seed", string_of_int a.seed);
    ("seconds", Printf.sprintf "%g" a.seconds);
    ("trace", if a.trace then "1" else "0");
  ]

(* Finite numbers only: JSON has no NaN or infinity. *)
let finite x = if Float.is_finite x then x else 0.0

let json_number x = Printf.sprintf "%.17g" (finite x)

let metrics_json (ms : O.metric list) =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.O.name
             (json_number x.O.value) x.O.unit_)
         ms)
  ^ "}"

let metric_line ~kind (x : O.metric) =
  Printf.sprintf "metric %-36s %16.6f %s (%s)\n" x.O.name (finite x.O.value) x.O.unit_ kind

let write_file a ~suffix contents =
  Option.iter
    (fun dir ->
      let path =
        Filename.concat dir
          (Printf.sprintf "%s-seed%d-trace%d%s" a.workload.W.name a.seed
             (if a.trace then 1 else 0) suffix)
      in
      let oc = open_out path in
      output_string oc contents;
      close_out oc)
    a.out

(* ------------------------------------------------------------------ *)
(* Operations and their checks                                          *)
(* ------------------------------------------------------------------ *)

(* An operation is one workload run, plus one request on serve-tiered. *)
type tally = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let tally = { attempted = 0; failed = 0; problems = [] }

let problem msg =
  if not (List.mem msg tally.problems) then tally.problems <- msg :: tally.problems

(* What the benchmark keeps of one run.  The [Experiment.result] itself
   is dropped at once, so retained results never inflate the peak heap. *)
type run = {
  wall_s : float;
  speed_s : float;  (** probe time around the run ({!Calib}) *)
  cost_ref_s : float;  (** [wall_s] at the reference host speed *)
  events : float;
  sim_s : float;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  gc_pause_s : float;
  core : O.metric list;  (** deterministic, unchanged by any obs switch *)
  obs : O.metric list;   (** deterministic for one obs setting *)
  ring : (int * int * (string * int) list) option;
      (** traced runs: events emitted, events dropped, retained tally *)
}

let fingerprint ms =
  String.concat ";" (List.map (fun x -> Printf.sprintf "%s=%.17g" x.O.name x.O.value) ms)

(* Run the workload once under [obs] and account for it.  [references]
   holds the first successful run's fingerprint of each class, so every
   later run with the same seed must reproduce it exactly. *)
let references : (string, string) Hashtbl.t = Hashtbl.create 4

let run_once ?(span = "Experiment.run") ?(obs : W.obs option) a =
  let w = a.workload in
  let obs = Option.value obs ~default:(W.default_obs w) in
  let s = W.setup ~obs w ~seed:a.seed in
  let k0 = Calib.run () in
  (* Start every run from a collected heap, so no run pays for the
     previous one's garbage and the peak heap is that of a single run. *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let outcome, pause =
    Gc_pause.measure (fun () ->
        Spans.with_span span (fun () -> try Ok (E.run s) with e -> Error e))
  in
  let wall_s = now () -. t0 in
  (* Empty the minor heap so the word counts are exact, not rounded to
     the last minor collection. *)
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let speed_s = (k0 +. Calib.run ()) /. 2.0 in
  tally.attempted <- tally.attempted + 1;
  match outcome with
  | Error e ->
      tally.failed <- tally.failed + 1;
      problem ("run raised " ^ Printexc.to_string e);
      None
  | Ok result ->
      let machine = W.machine ~seed:a.seed in
      let core = O.sim_outcomes result @ O.layer_counts ~machine result in
      let obs_ms = O.obs_counts result in
      let bad = O.failures ~ledger:obs.W.ledger ~serve:(W.is_serve w) result in
      let check key ms =
        let fp = fingerprint ms in
        match Hashtbl.find_opt references key with
        | None -> Hashtbl.replace references key fp; []
        | Some fp0 when fp0 = fp -> []
        | Some _ -> [ "outputs differ between runs with one seed (" ^ key ^ ")" ]
      in
      let obs_key =
        Printf.sprintf "obs ledger=%b telemetry=%b" obs.W.ledger obs.W.telemetry
      in
      let bad = bad @ check "core" core @ check obs_key obs_ms in
      List.iter problem bad;
      if bad <> [] then tally.failed <- tally.failed + 1;
      (match result.E.r_serving with
      | Some sm ->
          let open Memhog_exec.Server in
          tally.attempted <- tally.attempted + sm.sm_arrived;
          tally.failed <- tally.failed + (sm.sm_arrived - sm.sm_completed)
      | None -> ());
      let ring =
        if obs.W.trace then
          let t = result.E.r_trace in
          Some (Trace.length t + Trace.dropped t, Trace.dropped t, Trace.counts t)
        else None
      in
      Some
        {
          wall_s;
          speed_s;
          cost_ref_s = wall_s *. Calib.reference_s /. speed_s;
          events = float_of_int (max 1 result.E.r_events_executed);
          sim_s = O.sim_seconds result;
          ring;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
          minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
          major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
          gc_pause_s = pause;
          core;
          obs = obs_ms;
        }

(* One set-up sample: the pre-engine work of [Experiment.run], timed as
   a whole and by phase. *)
let setup_sample a =
  let t0 = now () in
  let s = W.setup a.workload ~seed:a.seed in
  let p = W.prepare s in
  (now () -. t0, p)

let finish a ~metrics ~report =
  if not (Hashtbl.mem references "core") then problem "no successful run";
  let correct = tally.failed = 0 && tally.problems = [] in
  let error_rate =
    float_of_int tally.failed /. float_of_int (max 1 tally.attempted)
  in
  List.iter (fun (k, v) -> Printf.printf "env %s=%s\n" k v) (env_record a);
  print_string report;
  print_string (metric_line ~kind:"checks" (O.m "error_rate" "fraction" error_rate));
  Printf.printf "checks attempted=%d failed=%d %s\n" tally.attempted tally.failed
    (if tally.problems = [] then "ok" else String.concat "; " (List.rev tally.problems));
  let line =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
      correct (max 1 tally.attempted) tally.failed (metrics_json metrics)
  in
  let env_json =
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" k (Memhog_core.Json_str.escape v))
           (env_record a))
    ^ "}"
  in
  write_file a ~suffix:".json"
    (Printf.sprintf "{\"env\": %s,\n \"result\": %s}\n" env_json line);
  print_endline line

(* ------------------------------------------------------------------ *)
(* End-to-end mode                                                      *)
(* ------------------------------------------------------------------ *)

let isolation_check a (r : run) =
  let w = a.workload in
  List.iter problem
    (O.isolation_failures ~serve:(W.is_serve w) ~variant:w.W.variant r.core)

let end_to_end a =
  let t_start = now () in
  (* Three set-up samples before every run, so they span the whole
     measurement like the runs do, scaled by the speed the run saw. *)
  let setups = ref [] in
  let rep () =
    let samples = List.init 3 (fun _ -> fst (setup_sample a)) in
    let r = run_once a in
    Option.iter
      (fun r ->
        setups := List.map (fun s -> s *. Calib.reference_s /. r.speed_s) samples @ !setups)
      r;
    r
  in
  (* The first run is the warm-up and the reference every later run must
     reproduce; it is checked but not timed. *)
  let reference = rep () in
  Option.iter (isolation_check a) reference;
  let rec loop acc =
    if reference <> None && (now () -. t_start < a.seconds || List.length acc < 2)
    then match rep () with Some r -> loop (r :: acc) | None -> loop acc
    else acc
  in
  let runs = loop [] in
  let med f = median (List.map f runs) in
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  (* Every timed run does the same work, so the run's cost at reference
     speed is the total host time over the total probe time: each run
     weighs in with the speed the host had while it ran. *)
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  let wall_ref_s = sum (fun r -> r.wall_s) *. Calib.reference_s /. sum (fun r -> r.speed_s) in
  let measured =
    [
      O.m "wall_ref_s" "s" wall_ref_s;
      O.m "events_per_ref_s" "1/s" (med (fun r -> r.events) /. wall_ref_s);
      O.m "sim_s_per_ref_s" "ratio" (med (fun r -> r.sim_s) /. wall_ref_s);
      O.m "alloc_words_per_event" "words" (med (fun r -> r.minor_words /. r.events));
      O.m "peak_heap_mb" "MB" peak_mb;
      O.m "setup_s" "s" (median !setups);
    ]
  in
  let raw =
    [
      O.m "wall_s" "s" (med (fun r -> r.wall_s));
      O.m "events_per_s" "1/s" (med (fun r -> r.events /. r.wall_s));
      O.m "sim_s_per_wall_s" "ratio" (med (fun r -> r.sim_s /. r.wall_s));
      O.m "probe_s" "s" (med (fun r -> r.speed_s));
    ]
  in
  let report = Buffer.create 1024 in
  Printf.bprintf report "timed runs %d after one warm-up run; wall_s/probe_s: %s\n"
    (List.length runs)
    (String.concat " "
       (List.rev_map (fun r -> Printf.sprintf "%.3f/%.4f" r.wall_s r.speed_s) runs));
  let add kind x = Buffer.add_string report (metric_line ~kind x) in
  List.iter (add "host, as measured") raw;
  List.iter (add "host, reference speed") (List.filteri (fun i _ -> i < 3) measured);
  List.iter (add "host") (List.filteri (fun i _ -> i >= 3) measured);
  Option.iter
    (fun r ->
      List.iter (add "sim") (O.sim_applicable ~serve:(W.is_serve a.workload) r.core))
    reference;
  finish a ~metrics:(if runs = [] then [] else measured) ~report:(Buffer.contents report)

(* ------------------------------------------------------------------ *)
(* Traced mode                                                          *)
(* ------------------------------------------------------------------ *)

let pct ~on ~off = (on -. off) /. off *. 100.0

let traced a =
  let t_start = now () in
  Gc_pause.start ();
  Spans.enabled := true;
  let w = a.workload in
  let base = W.default_obs w in
  let prepared = W.prepare ~n:50 (W.setup w ~seed:a.seed) in
  let inv = Spans.with_span "Os.check_invariants" (fun () -> Os.check_invariants prepared.W.os) in
  List.iter (fun (name, ok) -> if not ok then problem ("fresh kernel invariant " ^ name)) inv;
  (* Rounds of four runs: as configured, with the event trace on, and with
     the ledger and telemetry each switched the other way.  The switches
     must leave every core counter unchanged. *)
  let ledger_flip = { base with W.ledger = not base.W.ledger } in
  let tele_flip = { base with W.telemetry = not base.W.telemetry } in
  let rec rounds acc =
    if acc = [] || now () -. t_start < a.seconds then
      let plain = run_once a in
      let tr = run_once ~span:"Experiment.run[trace]" ~obs:{ base with W.trace = true } a in
      let lf = run_once ~span:"Experiment.run[ledger flipped]" ~obs:ledger_flip a in
      let tf = run_once ~span:"Experiment.run[telemetry flipped]" ~obs:tele_flip a in
      match (plain, tr, lf, tf) with
      | Some p, Some t, Some l, Some f -> rounds ((p, t, l, f) :: acc)
      | _ -> acc
    else acc
  in
  let rs = rounds [] in
  let plain_of (p, _, _, _) = p in
  let med f = median (List.map f rs) in
  let on_off flag ~same ~flipped = if flag then (same, flipped) else (flipped, same) in
  let ledger_pair (p, _, l, _) = on_off base.W.ledger ~same:p ~flipped:l in
  let tele_pair (p, _, _, f) = on_off base.W.telemetry ~same:p ~flipped:f in
  let overhead pair q = let on, off = pair q in pct ~on:on.cost_ref_s ~off:off.cost_ref_s in
  let words pair q = let on, off = pair q in (on.minor_words -. off.minor_words) /. on.events in
  let layer name f = Spans.with_span ("layer " ^ name) f in
  let engine_ns = layer "Engine.spawn+delay" Layers.engine_ns_per_event in
  let heap_ns = layer "Heap.add+pop_min" Layers.heap_ns_per_op in
  let resident_ns, fault_ns, not_hard = layer "Os.touch" Layers.touch_costs in
  if not_hard <> 0 then problem "Os.touch probe: first touches were not all hard faults";
  let read_ns = layer "Swap.read_page" Layers.swap_read_page_ns in
  let prefetch_ns, unfiltered = layer "Runtime.prefetch_page" Layers.prefetch_page_costs in
  if unfiltered <> 0 then problem "Runtime.prefetch_page probe: resident pages not filtered";
  let rb_ns = layer "Release_buffer.add+pop_lowest" Layers.release_buffer_ns_per_page in
  let host =
    if rs = [] then []
    else
      [
        O.m "engine.ns_per_event" "ns" engine_ns;
        O.m "heap.ns_per_op" "ns" heap_ns;
        O.m "gc.minor_collections" "count" (med (fun q -> float (plain_of q).minor_gcs));
        O.m "gc.major_collections" "count" (med (fun q -> float (plain_of q).major_gcs));
        O.m "gc.promoted_words_per_event" "words"
          (med (fun q -> let p = plain_of q in p.promoted_words /. p.events));
        O.m "gc.pause_share" "ratio" (med (fun q -> let p = plain_of q in p.gc_pause_s /. p.wall_s));
        O.m "vm.touch_resident_ns" "ns" resident_ns;
        O.m "vm.touch_fault_ns" "ns" fault_ns;
        O.m "vm.os_create_s" "s" prepared.W.os_create_s;
        O.m "disk.read_page_ns" "ns" read_ns;
        O.m "runtime.prefetch_page_ns" "ns" prefetch_ns;
        O.m "release_buffer.ns_per_page" "ns" rb_ns;
        O.m "ledger.overhead_pct" "%" (med (overhead ledger_pair));
        O.m "ledger.words_per_event" "words" (med (words ledger_pair));
        O.m "telemetry.overhead_pct" "%" (med (overhead tele_pair));
        O.m "telemetry.words_per_event" "words" (med (words tele_pair));
        O.m "trace.overhead_pct" "%"
          (med (fun (p, t, _, _) -> pct ~on:t.cost_ref_s ~off:p.cost_ref_s));
        O.m "workloads.make_s" "s" prepared.W.make_s;
        O.m "compiler.compile_s" "s" prepared.W.compile_s;
      ]
  in
  let report = Buffer.create 4096 in
  Printf.bprintf report "rounds %d (runs: as configured, traced, ledger flipped, telemetry flipped)\n"
    (List.length rs);
  let per_layer, trace_counts =
    match rs with
    | [] -> ([], [])
    | (p, t, _, _) :: _ ->
        isolation_check a p;
        let emitted, dropped, tally = Option.get t.ring in
        let trace_ms =
          [ O.count "trace.events" emitted; O.count "trace.dropped" dropped ]
        in
        (p.core @ p.obs @ host @ trace_ms, tally)
  in
  List.iter (fun x -> Buffer.add_string report (metric_line ~kind:"layer" x)) per_layer;
  Printf.bprintf report "gc runtime_events lost=%d\n" (Gc_pause.lost_events ());
  List.iter
    (fun (kind, n) -> Printf.bprintf report "trace-kind %-28s %d (retained ring)\n" kind n)
    trace_counts;
  List.iter
    (fun (name, (n, total, self)) ->
      Printf.bprintf report "span %-36s calls=%d total_s=%.4f self_s=%.4f\n" name n total self)
    (Spans.summary ());
  write_file a ~suffix:".spans.json" (Spans.to_json ~env:(env_record a) ());
  finish a ~metrics:per_layer ~report:(Buffer.contents report)

let () =
  let a = parse_args () in
  if a.trace then traced a else end_to_end a
